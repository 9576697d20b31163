//! The BSP superstep loop: routing, fused aggregation, broadcast tables,
//! metrics.
//!
//! # Execution model
//!
//! An engine runs over a [`Layout`]: the slot table of every worker,
//! the one `id → (worker, slot)` index, and each vertex's out-edges as
//! pre-resolved [`Route`]s. The layout is shared (`Arc`) and
//! never written; the engine itself owns only what a run changes: one
//! state per slot, the sealed inboxes, the broadcast table and the report.
//! [`PregelEngine::with_layout`] — the one constructor — builds that from
//! a layout somebody else keeps (a session plan: lay the graph out once,
//! run many times) and allocates exactly one exact-sized state vector per
//! worker: no id is hashed and no vector grows.
//!
//! A superstep is the sequence of stages `PregelEngine::superstep` spells
//! out: resolve the plane the program declared for the step → **fork-join
//! compute**, a wave of senders at a time → merge the senders' accounting
//! → transpose their shards → exchange → seal → memory check → trace. The
//! compute is a real fork-join: every logical worker runs the program's
//! one kernel over its slots on its own OS thread (up to the global
//! [`inferturbo_common::Parallelism`] budget), writing its outgoing
//! messages into per-(sender × destination) **outbox shards**. All
//! workers form one wave, except on a fused step in process (see below),
//! which runs waves of as many senders as there are threads. Rows leave
//! a vertex as (row, span of routes) pairs in the [`Outbox`] spool; the
//! worker's one routing loop walks each span, writes the row once into
//! the worker's row table and a `(slot, table row)` reference into the
//! shard each route names (or, fused, folds the row into that shard) — no
//! lookup per edge, no row copied per edge. Byte accounting for rows
//! happens once per worker after its last vertex, from the shards' own
//! slot lists and the layout's slot tables. Shards are merged without
//! locks, in ascending sender order — the exact order a serial sender loop
//! would deliver in — so results, byte accounting, and metrics are
//! identical for every thread count.
//!
//! What a run allocates: the per-worker state vectors, each step's typed
//! tables and the inboxes sealed at each barrier. The outbox spools, the
//! cells of the shard grid (row tables, row and typed references, fused
//! partials) and the sent-row indexes are pooled in a [`ScratchPool`], so
//! only a first run allocates them. A pool built from a plan's
//! [`CellCounts`] reserves each grid cell and each typed table exactly, at
//! the widest row any step of the run declares, so none grows while a run
//! writes it; without counts they grow as they are written.
//!
//! # Message planes
//!
//! Two planes carry traffic between supersteps; a program may use both in
//! the same step, and its kernel reads both back through one
//! [`Inbox`]:
//!
//! - the **typed plane**: `P::Msg` values — variable-width payloads such
//!   as broadcast refs and control messages — addressed by route like the
//!   rows: [`Outbox::scatter`](crate::vertex::Outbox::scatter) spools one
//!   message with a span of routes,
//!   [`Outbox::send`](crate::vertex::Outbox::send) resolves its id at the
//!   call and spools a span of one. The routing loop sizes a message once
//!   per span, hashes nothing, and stores it once in its sender worker's
//!   typed table for the step; each route gets an 8-byte
//!   `(slot, table index)` reference in the sender's list for its
//!   destination worker — the row plane's shape. At the barrier each
//!   destination's references are sealed with the row plane's counting
//!   sort ([`inferturbo_common::rows::seal_order`]), and the kernel is
//!   lent each message where its sender stored it
//!   ([`LentMessages`]). The tables are
//!   shared by every inbox sealed from them and by a checkpoint of those
//!   inboxes;
//! - the **columnar plane**: when the program declares a
//!   [`MessageLayout`](crate::vertex::MessageLayout) for the emitting
//!   step, fixed-width `f32` rows travel in flat buffers — no `Vec<f32>`
//!   per message, no `Msg` enum on the hot path. A materialized row is
//!   written once, into its sender worker's row table
//!   ([`inferturbo_common::rows::RowTable`]), and each edge carries an
//!   8-byte `(slot, table row)` reference. At the barrier each
//!   destination's [`inferturbo_common::rows::RowArena`] is sealed from
//!   those references with a counting scatter
//!   ([`RowArena::seal_refs`]), and the kernel is lent each row where its
//!   sender wrote it: one row per sending vertex is held, not one per
//!   edge. A table is shared by every inbox sealed from it and by a
//!   checkpoint of those inboxes, and is written again only once nothing
//!   holds it. A vertex is also lent the row it sent itself
//!   ([`Inbox::own_row`]): the engine keeps, per sender worker, the table
//!   row each slot wrote, and holds that step's tables until the next
//!   compute ends, whatever the transport or spill setting. Only a
//!   transport that moves bytes gets the rows packed into
//!   per-(sender × destination) [`RowShard`]s, and its merged flat
//!   arena comes back; under a spill budget the seal streams the rows
//!   from the tables into the spill file instead. If the step also
//!   provides a [`FusedAggregator`], **gather is fused into scatter**:
//!   senders fold rows into per-destination accumulator rows as they
//!   emit, and one partial row per (sender, destination slot) is merged
//!   into a dense O(V·d) accumulator set — peak inbox memory and shuffle
//!   volume drop from O(E·d) to O(V·d), the paper's partial-aggregation
//!   optimisation done at the engine level. This is the engine's one
//!   sender-side combiner. In process the merge does not wait for the
//!   barrier: the workers compute in waves of
//!   [`Parallelism::get`](inferturbo_common::Parallelism::get) senders,
//!   and as each wave ends every destination folds that wave's partials
//!   into its accumulators ([`FusedRows::open`], [`FusedFold::fold`]),
//!   so only one wave's shards are alive at a time, not every sender's;
//!   the barrier seals (and, under a spill budget, spills) the
//!   accumulators. A transport that moves bytes gets every sender's
//!   shards at the barrier and merges them itself.
//!
//! A transport that moves bytes gets the typed plane as encoded records
//! built from the references (each message encoded once, its bytes copied
//! per reference), and its merged records come back decoded into one table
//! with one reference per record, so both transports seal one inbox form.
//!
//! Which columnar plane a step is on is one value on each side of the
//! barrier — `Emit` for what the workers write, the transport's
//! [`MergedCols`] for what they read next — each carrying its own width
//! (and fold).
//!
//! # Determinism contract
//!
//! Parallel execution is observably identical to serial for every thread
//! count, and delivery order is fixed on both planes. Typed messages —
//! broadcast refs included — and materialized (non-fused) rows are
//! delivered to a vertex in (sender worker ascending, emission order
//! within a sender), with no exception. Fused rows fold a sender's rows
//! per destination in emission order (copy-on-first, so the first row is
//! taken verbatim), and each destination merges its partials in
//! ascending sender order with one lane-wise fold per partial — wave by
//! wave or all at once, the same folds in the same order.
//! A program folding its row slice front-to-back therefore sees exactly
//! the serial per-message fold, and a fused accumulator equals that fold
//! regrouped per sender worker — bit for bit, at every thread count, over
//! every transport, spilled or resident, recovered or clean.

use crate::vertex::{Inbox, LentMessages, Outbox, RowsIn, SendMisuse, VertexProgram};
use inferturbo_cluster::transport::frame::EncodedRecords;
use inferturbo_cluster::transport::{
    ColsShards, DestMerged, DestShards, Exchange, ExchangeOut, InProcess, MergedCols, Transport,
};
use inferturbo_cluster::{
    ClusterSpec, FaultInjector, MessagePlaneBytes, RecoveryPolicy, RunReport, WorkerPhase,
};
use inferturbo_common::codec::{varint_len, Decode, Encode};
use inferturbo_common::layout::{CellCounts, Layout, Route};
use inferturbo_common::par::par_map;
use inferturbo_common::rows::{
    row_payload_len, seal_order, AggKind, FusedAggregator, FusedFold, FusedRows, FusedSlotShard,
    RowArena, RowBlock, RowShard, RowTable, SpillPolicy,
};
use inferturbo_common::{Error, FxHashMap, Parallelism, Result};
use inferturbo_obs::{Payload, Site, TraceHandle, TraceMark};
use std::sync::Arc;

/// Engine configuration. Every knob is an explicit field: a fresh
/// [`PregelConfig::new`] is fault-free, recovery-free, untraced and
/// in-process, and only a `with_*` call changes that — the engine reads
/// no ambient configuration.
#[derive(Debug, Clone)]
pub struct PregelConfig {
    pub spec: ClusterSpec,
    /// Out-of-core policy for the columnar inter-superstep inboxes. When
    /// set, each worker's sealed `RowArena` / merged `FusedRows` whose
    /// row data exceeds `budget_bytes` pages to disk and streams back
    /// through a bounded window at apply time. Spilling never changes a
    /// bit (see the spill contract in `inferturbo_common::rows`); it only
    /// moves bytes from the resident plane to the spilled plane of the
    /// memory model, lifting the per-worker cap the same way the paper's
    /// MapReduce backend does.
    pub spill: Option<SpillPolicy>,
    /// Armed fault schedule (deterministic injection). `None` — the
    /// default — costs nothing: every check site is a single `Option`
    /// test. Clones of an injector share its fire budgets: a session plan
    /// arms every run from one injector, so a fault consumed by one run
    /// does not re-fire in the next.
    pub faults: Option<FaultInjector>,
    /// Superstep checkpoint/replay policy. When set, [`PregelEngine::run`]
    /// checkpoints vertex state + sealed inboxes at the configured cadence
    /// and replays from the last checkpoint on a *transient* failure
    /// ([`inferturbo_common::Error::is_transient`]); permanent errors (OOM,
    /// capacity, configuration) surface unchanged. Recovery is bit-exact:
    /// a recovered run is indistinguishable from a fault-free one.
    pub recovery: Option<RecoveryPolicy>,
    /// Trace sink for the deterministic flight recorder. Disabled by
    /// default (one branch per superstep). When enabled, the engine emits
    /// per-worker phase accounting and one superstep summary at the seal
    /// barrier — never from inside worker tasks — and marks/rewinds the
    /// sink with each checkpoint/restore, so a recovered trace is
    /// bit-identical to a fault-free one.
    pub trace: TraceHandle,
    /// Who moves sealed shards between workers at the superstep barrier.
    /// Defaults to the zero-copy [`InProcess`] backend. Every backend is
    /// bit-identical — logits, traces and byte accounting other than
    /// [`RunReport::wire_bytes`] do not depend on this choice.
    pub transport: Arc<dyn Transport>,
}

impl PregelConfig {
    pub fn new(spec: ClusterSpec) -> Self {
        PregelConfig {
            spec,
            spill: None,
            faults: None,
            recovery: None,
            trace: TraceHandle::disabled(),
            transport: Arc::new(InProcess),
        }
    }

    /// Set (or clear) the out-of-core spill policy for the columnar
    /// inboxes. See [`PregelConfig::spill`].
    pub fn with_spill(mut self, spill: Option<SpillPolicy>) -> Self {
        self.spill = spill;
        self
    }

    /// Arm (or clear) a deterministic fault schedule for this engine (see
    /// [`PregelConfig::faults`]): the injector's per-site fire budgets are
    /// shared by every clone of this config, so a replayed superstep does
    /// not re-fire a fault that already fired.
    pub fn with_fault_injector(mut self, injector: Option<FaultInjector>) -> Self {
        self.faults = injector;
        self
    }

    /// Set (or clear) the superstep checkpoint/replay policy. See
    /// [`PregelConfig::recovery`].
    pub fn with_recovery(mut self, recovery: Option<RecoveryPolicy>) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attach a trace handle (see [`PregelConfig::trace`]).
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Use an explicit shuffle transport (see [`PregelConfig::transport`]).
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }
}

/// Pooled engine scratch: one outbox (message spools, row buffers) per
/// logical worker, the grids of both columnar planes — fused accumulator
/// shards with their dense slot indexes, `[wave slot][destination]` (in
/// process a fused step computes in waves of [`Parallelism::get`] senders,
/// slot `i` hosting senders `i`, `i + wave`, …), and materialized row
/// references, `[sender][destination]` — the senders' row tables, and the
/// per-slot indexes of the rows each slot sent. Every engine owns one —
/// supersteps within a run reuse it instead of reallocating — and a caller
/// that runs repeated inference over the same graph (a planned session)
/// can [`PregelEngine::take_scratch`] it after a run and
/// [`PregelEngine::set_scratch`] it into the next engine, so all of it is
/// allocated once per plan, not once per superstep.
///
/// A pool built with [`ScratchPool::planned`] knows how many rows each
/// grid cell takes ([`CellCounts`]): each cell is reserved exactly, at the
/// widest row the run declares, before it is first written — a wave
/// slot's fused cell for the largest of the senders it hosts — so no cell
/// regrows during a run and repeated runs at the same thread budget reuse
/// the same allocations. A default pool counts nothing, and its cells grow
/// as they are written.
///
/// Pooling is observably invisible: a reset shard/outbox is
/// indistinguishable from a fresh one (sparse index clear through the
/// touched keys), so results, byte accounting and metrics are identical
/// with or without a carried-over pool. A row table is written again only
/// once nothing else holds it: the inboxes sealed from it lend it until
/// they drain, the engine lends its rows back to their senders until the
/// next compute ends, and a checkpoint keeps it as long as the checkpoint
/// lives.
pub struct ScratchPool<M> {
    outboxes: Vec<Outbox<M>>,
    rows: Vec<Vec<Refs>>,
    /// `[sender][destination]`: typed-message references.
    typed: Vec<Vec<Refs>>,
    /// Per sender worker: every row table it has written, free or still
    /// held.
    tables: Vec<Vec<RowTable>>,
    /// Free sets of per-worker sent-row indexes (see [`SentRows`]).
    sent: Vec<Vec<Vec<u32>>>,
    /// `[wave slot][destination]`: fused shards (one row per sender for a
    /// transport that moves bytes).
    fused: Vec<Vec<FusedSlotShard>>,
    /// How many rows each grid cell takes; empty for a default pool.
    counts: CellCounts,
}

impl<M> Default for ScratchPool<M> {
    /// An empty pool; it grows to the engine's worker count on first use.
    fn default() -> Self {
        ScratchPool::planned(CellCounts::default())
    }
}

impl<M> ScratchPool<M> {
    /// An empty pool whose grid cells are reserved from `counts` (see the
    /// type docs).
    pub fn planned(counts: CellCounts) -> Self {
        ScratchPool {
            outboxes: Vec::new(),
            rows: Vec::new(),
            typed: Vec::new(),
            tables: Vec::new(),
            sent: Vec::new(),
            fused: Vec::new(),
            counts,
        }
    }

    /// Every allocation of the shard grid and the sent-row indexes the
    /// pool holds: each sender's row tables (in the order the pool last
    /// took them back), its row reference list per destination, each wave
    /// slot's fused shard per destination, each sender's typed reference
    /// list per destination, then each set of sent-row indexes. The same set of
    /// cells read before and after a run means the run reallocated none of
    /// them.
    pub fn cells(&self) -> Vec<PooledCell> {
        let cell = |kind, sender, addr: *const u8, capacity| PooledCell {
            kind,
            sender,
            addr: addr as usize,
            capacity,
        };
        let mut cells = Vec::new();
        for (w, tables) in self.tables.iter().enumerate() {
            for t in tables {
                let lanes = t.data().as_ptr().cast();
                cells.push(cell(CellKind::Table, w, lanes, t.capacity()));
            }
        }
        for (w, refs) in self.rows.iter().enumerate() {
            for (w2, r) in refs.iter().enumerate() {
                cells.push(cell(CellKind::Refs(w2), w, r.as_ptr().cast(), r.capacity()));
            }
        }
        for (w, shards) in self.fused.iter().enumerate() {
            for (w2, sh) in shards.iter().enumerate() {
                let (keys, counts) = (&sh.keys, &sh.counts);
                let lanes = sh.rows.data().as_ptr().cast();
                cells.push(cell(
                    CellKind::Keys(w2),
                    w,
                    keys.as_ptr().cast(),
                    keys.capacity(),
                ));
                cells.push(cell(
                    CellKind::Counts(w2),
                    w,
                    counts.as_ptr().cast(),
                    counts.capacity(),
                ));
                cells.push(cell(CellKind::Lanes(w2), w, lanes, sh.rows.capacity()));
            }
        }
        for (w, refs) in self.typed.iter().enumerate() {
            for (w2, r) in refs.iter().enumerate() {
                let at = r.as_ptr().cast();
                cells.push(cell(CellKind::TypedRefs(w2), w, at, r.capacity()));
            }
        }
        for set in &self.sent {
            for (w, at) in set.iter().enumerate() {
                cells.push(cell(CellKind::Sent, w, at.as_ptr().cast(), at.capacity()));
            }
        }
        cells
    }
}

/// One allocation of a [`ScratchPool`], as [`ScratchPool::cells`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledCell {
    pub kind: CellKind,
    /// The row of the grid that holds it: a sender worker, or for a fused
    /// cell merged in waves the wave slot — slot `i` of waves of `t`
    /// hosts senders `i`, `i + t`, ….
    pub sender: usize,
    /// Where the buffer lives.
    pub addr: usize,
    /// Elements it holds without growing.
    pub capacity: usize,
}

/// What a [`PooledCell`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// A row table's lanes.
    Table,
    /// `(slot, table row)` references bound for the given worker.
    Refs(usize),
    /// A fused shard's first-touch slots, bound for the given worker.
    Keys(usize),
    /// A fused shard's fold counts, bound for the given worker.
    Counts(usize),
    /// A fused shard's accumulator lanes, bound for the given worker.
    Lanes(usize),
    /// `(slot, typed table index)` references bound for the given worker.
    TypedRefs(usize),
    /// A sent-row index: one entry per slot of the sender.
    Sent,
}

/// What one sender sends one destination worker on a plane that stores
/// each message once: `(destination slot, index in the sender's table)` in
/// emission order — a materialized row of its row table, or a typed
/// message of its typed table.
type Refs = Vec<(u32, u32)>;

/// One worker's rows on the materialized plane from the last superstep:
/// its row table and, per slot, the table row that slot wrote last
/// (`u32::MAX`: none) — what [`Inbox::own_row`] lends.
#[derive(Clone)]
struct SentRows {
    table: RowTable,
    at: Vec<u32>,
}

impl SentRows {
    /// The row `slot` wrote, or an empty slice.
    fn of(&self, slot: usize) -> &[f32] {
        match self.at[slot] {
            u32::MAX => &[],
            at => self.table.row(at as usize),
        }
    }
}

/// A pooled `rows × n` grid, grown with `new` cells where it is short and
/// cut where it is long.
fn grid<T>(mut cells: Vec<Vec<T>>, rows: usize, n: usize, new: impl Fn() -> T) -> Vec<Vec<T>> {
    cells.resize_with(rows, Vec::new);
    for row in &mut cells {
        row.resize_with(n, &new);
    }
    cells
}

/// Swap the two axes of a `[sender][destination]` grid, keeping each
/// axis's order.
fn transpose<T>(grid: Vec<Vec<T>>) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..grid.len())
        .map(|_| Vec::with_capacity(grid.len()))
        .collect();
    for row in grid {
        for (cell, col) in row.into_iter().zip(&mut out) {
            col.push(cell);
        }
    }
    out
}

/// A step's typed tables, one per sender worker: every typed message it
/// sent, once, in emission order.
type TypedTables<M> = Arc<[Vec<M>]>;

/// A worker's sealed typed inbox: slot `s`'s messages are
/// `sources[offsets[s]..offsets[s+1]]`, each a `(sender, table index)`
/// reference into the step's typed tables, in delivery order. Sealed once
/// per superstep by the row plane's counting sort
/// ([`inferturbo_common::rows::seal_order`]); the messages themselves stay
/// where their senders stored them, shared by every destination's inbox
/// and by a checkpoint of it.
struct TypedInbox<M> {
    /// Per-slot ranges: `n_slots + 1` ascending offsets into `sources`.
    offsets: Vec<u32>,
    sources: Vec<(u32, u32)>,
    /// The tables `sources` index; none while nothing is pending.
    tables: Option<TypedTables<M>>,
}

impl<M> Clone for TypedInbox<M> {
    /// References cloned, tables shared.
    fn clone(&self) -> Self {
        TypedInbox {
            offsets: self.offsets.clone(),
            sources: self.sources.clone(),
            tables: self.tables.clone(),
        }
    }
}

impl<M> TypedInbox<M> {
    /// An inbox over `n_slots` slots with nothing pending.
    fn empty(n_slots: usize) -> Self {
        TypedInbox {
            offsets: vec![0; n_slots + 1],
            sources: Vec::new(),
            tables: None,
        }
    }

    /// Messages pending for `slot`, in delivery order, lent where their
    /// senders stored them.
    fn slot(&self, slot: usize) -> LentMessages<'_, M> {
        let refs = &self.sources[self.offsets[slot] as usize..self.offsets[slot + 1] as usize];
        LentMessages::new(refs, self.tables.as_deref().unwrap_or_default())
    }

    /// Let go of the messages once the worker has read them, before the
    /// next inbox is sealed beside this one.
    fn drain(&mut self) {
        self.sources = Vec::new();
        self.offsets.fill(0);
        self.tables = None;
    }

    /// Seal from per-sender reference lists: the `s`-th list `refs`
    /// yields is sender `s`'s `(slot, table index)` per message bound
    /// here, in emission order, and `tables[s]` the table they index. A
    /// stable counting sort by slot of the senders' concatenation (senders
    /// ascending) — exactly the delivery order of a serial sender loop; no
    /// message moves.
    fn seal<'r>(
        n_slots: usize,
        refs: impl Iterator<Item = &'r Refs> + Clone,
        tables: TypedTables<M>,
    ) -> Result<Self> {
        if tables.iter().any(|t| u32::try_from(t.len()).is_err()) {
            return Err(Error::Capacity(
                "a typed table exceeds its references' u32 indexes".into(),
            ));
        }
        let total = refs.clone().map(Vec::len).sum();
        let rows = refs
            .enumerate()
            .flat_map(|(sender, r)| r.iter().map(move |&(slot, at)| (slot, (sender as u32, at))));
        let (mut offsets, mut sources) = (Vec::new(), Vec::new());
        seal_order(n_slots, total, rows, &mut offsets, &mut sources)?;
        Ok(TypedInbox {
            offsets,
            tables: (!sources.is_empty()).then_some(tables),
            sources,
        })
    }
}

/// Checkpoint copy of the columnar half of a worker's inbox — what the last
/// exchange merged for it, kept as the transport returned it: resident
/// rows cloned, spilled rows shared.
fn cols_snapshot(cols: &MergedCols) -> MergedCols {
    match cols {
        MergedCols::None => MergedCols::None,
        MergedCols::Rows(a) => MergedCols::Rows(a.snapshot()),
        MergedCols::Fused(f) => MergedCols::Fused(f.snapshot()),
    }
}

/// `(resident, spilled)` bytes of an inbox's row data.
fn cols_bytes(cols: &MergedCols) -> (u64, u64) {
    match cols {
        MergedCols::None => (0, 0),
        MergedCols::Rows(a) => (a.resident_bytes(), a.spilled_bytes()),
        MergedCols::Fused(f) => (f.resident_bytes(), f.spilled_bytes()),
    }
}

/// `slot`'s half of the kernel's [`Inbox`]. `&mut`: a spilled inbox pages
/// its covering window in here. Slots drain in ascending order, so the
/// window streams the spill file forward exactly once per superstep.
fn cols_rows(cols: &mut MergedCols, slot: usize) -> Result<RowsIn<'_>> {
    Ok(match cols {
        MergedCols::None => RowsIn::None,
        MergedCols::Rows(a) => RowsIn::Rows(a.rows(slot)?),
        MergedCols::Fused(f) => RowsIn::Fused {
            dim: f.dim(),
            count: f.count(slot),
            acc: f.row(slot)?,
        },
    })
}

/// A consistent snapshot of everything a superstep reads: vertex states,
/// both inbox planes, the rows each slot sent (and the tables they lie
/// in), the broadcast table, and the full [`RunReport`].
/// Taken at the superstep barrier (between supersteps every inbox is
/// sealed and immutable), so restoring and replaying is bit-identical to
/// never having failed — including the report, which a failed superstep
/// may have partially committed to. Spilled inbox data is shared by
/// reference ([`inferturbo_common::rows::SpillableRows::snapshot`]): the
/// checkpoint holds the spill file alive without copying it, modelling
/// durable external storage — checkpoint bytes are *not* charged against
/// worker memory caps.
struct Checkpoint<P: VertexProgram> {
    step: usize,
    workers: Vec<Vec<P::State>>,
    inbox: Vec<TypedInbox<P::Msg>>,
    inbox_cols: Vec<MergedCols>,
    inbox_bytes: Vec<u64>,
    /// The rows each slot sent: a replayed step lends the same ones.
    sent: Vec<SentRows>,
    bcast: FxHashMap<u64, P::Msg>,
    report: RunReport,
    /// Trace position at snapshot time: restore rewinds the sink here so
    /// replayed supersteps re-emit into a truncated trace (bit-identical
    /// to never having failed).
    trace_mark: TraceMark,
}

/// What the workers emit on the columnar plane this superstep: the plane
/// the program declared for the step, with its row width and — fused — its
/// fold, and the grid the rows land in: fused accumulator shards, or each
/// sender's row table with its `(slot, table row)` references per
/// destination and the table row each of its slots wrote. The grid is
/// `[sender][destination]` while the workers compute and
/// `[destination][sender]` once transposed for the exchange — except a
/// fused grid merged in waves, which has one row per wave slot and is never
/// transposed (see [`Emit::Fused`]).
/// One value per superstep: every worker's [`RowSink`] and every
/// destination's [`ColsShards`] and refs inbox is a view of it, so they
/// cannot disagree about the plane.
enum Emit<'p> {
    /// No layout declared: the typed plane carries the step alone.
    None,
    Rows {
        dim: usize,
        /// One per sender worker.
        tables: Vec<RowTable>,
        refs: Vec<Vec<Refs>>,
        /// One per sender worker: slot → table row, `u32::MAX` for none.
        sent: Vec<Vec<u32>>,
    },
    /// In process (`merged` set) the workers compute in waves of
    /// [`Parallelism::get`] senders: the grid has one row per wave slot —
    /// slot `i` hosts senders `i`, `i + wave`, … — and as each wave ends
    /// every destination folds that wave's shards into its accumulators in
    /// `merged`, so the slots are free for the next wave. For a transport
    /// that moves bytes (`merged` unset) the grid has one row per sender,
    /// all computed in one wave, and the transport merges it whole.
    Fused {
        dim: usize,
        agg: &'p dyn FusedAggregator,
        shards: Vec<Vec<FusedSlotShard>>,
        /// Per destination: the next inbox, folded wave by wave. The
        /// barrier takes the folds to seal them; `Some` still marks the
        /// grid as wave-major.
        merged: Option<Vec<FusedFold>>,
    },
}

/// The widest row a run declares on each columnar plane: materialized,
/// then fused.
type Widest = (usize, usize);

impl<'p> Emit<'p> {
    /// Resolve `step`'s plane from the program's declarations and take
    /// its grid out of the pool: `n × n` over `layout`'s workers, or — a
    /// fused step `in_waves` — one row per wave slot, with every
    /// destination's accumulators opened. Pooled shards are reused as they
    /// are — each worker resets its own row ([`RowSink::reset`]); a pooled
    /// row table only when nothing else holds it any more, and only by the
    /// sender it was sized for.
    fn open<P: VertexProgram>(
        program: &'p P,
        step: usize,
        pool: &mut ScratchPool<P::Msg>,
        layout: &Layout,
        in_waves: bool,
    ) -> Self {
        let n = layout.n_workers();
        let Some(declared) = program.message_layout(step) else {
            return Emit::None;
        };
        let dim = declared.dim;
        match program.fused_aggregator(step) {
            None => {
                // The last superstep's tables are lent out until its
                // inboxes drain and the next compute ends, and a
                // checkpoint may hold older ones: those stay in the pool
                // for a later step.
                pool.tables.resize_with(n, Vec::new);
                let tables = pool.tables.iter_mut().map(|own| {
                    match own.iter().position(|t| Arc::strong_count(t) == 1) {
                        Some(free) => own.remove(free),
                        None => Arc::new(RowBlock::new(dim)),
                    }
                });
                let mut sent = pool.sent.pop().unwrap_or_default();
                sent.resize_with(n, Vec::new);
                Emit::Rows {
                    dim,
                    tables: tables.collect(),
                    refs: grid(std::mem::take(&mut pool.rows), n, n, Vec::new),
                    sent,
                }
            }
            Some(agg) => {
                let (rows, merged) = match in_waves {
                    true => {
                        let open = (0..n).map(|w2| FusedRows::open(dim, layout.n_slots(w2), agg));
                        (Parallelism::get().clamp(1, n), Some(open.collect()))
                    }
                    false => (n, None),
                };
                let pooled = std::mem::take(&mut pool.fused);
                Emit::Fused {
                    dim,
                    agg,
                    shards: grid(pooled, rows, n, || FusedSlotShard::new(dim, 0)),
                    merged,
                }
            }
        }
    }

    /// How many senders compute at once: a wave-major grid's rows, else
    /// all `n`.
    fn wave(&self, n: usize) -> usize {
        match self {
            Emit::Fused {
                shards,
                merged: Some(_),
                ..
            } => shards.len(),
            _ => n,
        }
    }

    /// One sink per sender of a wave of `len`, over the first `len` rows
    /// of the grid.
    fn sinks(&mut self, len: usize) -> Vec<RowSink<'_>> {
        match self {
            Emit::None => (0..len).map(|_| RowSink::None).collect(),
            // `open` took only tables nothing else holds, so `make_mut`
            // lends each in place.
            Emit::Rows {
                dim,
                tables,
                refs,
                sent,
            } => tables
                .iter_mut()
                .zip(refs)
                .zip(sent)
                .take(len)
                .map(|((table, refs), sent)| RowSink::Rows {
                    dim: *dim,
                    table: Arc::make_mut(table),
                    refs,
                    sent,
                })
                .collect(),
            Emit::Fused {
                dim, agg, shards, ..
            } => shards
                .iter_mut()
                .take(len)
                .map(|shards| RowSink::Fused {
                    dim: *dim,
                    shards,
                    agg: *agg,
                    kind: agg.wire_kind(),
                })
                .collect(),
        }
    }

    /// A wave of `len` senders has computed into the first `len` rows of
    /// the grid: add its `(shards, rows)` to `volume`, for the trace, and —
    /// merged in waves — fold each destination's shards into its
    /// accumulators ([`fold_wave`]).
    fn end_wave(&mut self, len: usize, volume: &mut (u64, u64)) {
        fn add<T>(volume: &mut (u64, u64), wave: &[Vec<T>], len: impl Fn(&T) -> usize) {
            for cell in wave.iter().flatten() {
                volume.0 += 1;
                volume.1 += len(cell) as u64;
            }
        }
        match self {
            Emit::None => {}
            Emit::Rows { refs, .. } => add(volume, &refs[..len], Vec::len),
            Emit::Fused {
                agg,
                shards,
                merged,
                ..
            } => {
                add(volume, &shards[..len], FusedSlotShard::len);
                if let Some(merged) = merged {
                    fold_wave(merged, &shards[..len], *agg);
                }
            }
        }
    }

    /// Turn a whole grid from sender-major to destination-major (or
    /// back); a wave-major grid stays as it is.
    fn transposed(mut self) -> Self {
        match &mut self {
            Emit::None
            | Emit::Fused {
                merged: Some(_), ..
            } => {}
            Emit::Rows { refs, .. } => *refs = transpose(std::mem::take(refs)),
            Emit::Fused { shards, .. } => *shards = transpose(std::mem::take(shards)),
        }
        self
    }

    /// What each sender worker wrote on the materialized plane, for the
    /// next compute to lend back: its table and its slots' rows in it.
    /// Empty on the other planes.
    fn sent_rows(&mut self) -> Vec<SentRows> {
        let Emit::Rows { tables, sent, .. } = self else {
            return Vec::new();
        };
        let at = std::mem::take(sent);
        let tables = tables.iter().cloned();
        tables
            .zip(at)
            .map(|(table, at)| SentRows { table, at })
            .collect()
    }

    /// For a transport that moves bytes: every destination's materialized
    /// rows packed into one [`RowShard`] per sender ascending (of a
    /// transposed grid) — the one place a row is copied per edge. `None`
    /// on the other planes.
    fn packed(&self) -> Option<Vec<Vec<RowShard>>> {
        let Emit::Rows {
            dim, tables, refs, ..
        } = self
        else {
            return None;
        };
        let pack = |(table, refs): (&RowTable, &Refs)| {
            let mut shard = RowShard::new(*dim);
            for &(slot, at) in refs {
                shard.push(slot, table.row(at as usize));
            }
            shard
        };
        let dests = refs
            .iter()
            .map(|senders| tables.iter().zip(senders).map(pack).collect());
        Some(dests.collect())
    }

    /// Destination `w2`'s shards, one per sender ascending (of a
    /// transposed grid), as the transport takes them. Materialized rows
    /// reach the transport only as `packed` shards, fused ones only as a
    /// whole grid; otherwise they stay with the engine — in the senders'
    /// tables, or folded wave by wave — which seals them itself.
    fn dest<'a>(&'a self, w2: usize, packed: Option<&'a [Vec<RowShard>]>) -> ColsShards<'a> {
        match self {
            Emit::None => ColsShards::None,
            Emit::Rows { dim, .. } => match packed {
                Some(packed) => ColsShards::Rows {
                    dim: *dim,
                    shards: &packed[w2],
                },
                None => ColsShards::None,
            },
            Emit::Fused {
                merged: Some(_), ..
            } => ColsShards::None,
            Emit::Fused {
                dim, agg, shards, ..
            } => ColsShards::Fused {
                dim: *dim,
                agg: *agg,
                shards: &shards[w2],
            },
        }
    }

    /// Hand the grid back to the pool, each shard to its sender's (or wave
    /// slot's) row, so the next superstep resets them instead of
    /// reallocating. The row tables go back beside the ones still held.
    fn reclaim<M>(self, pool: &mut ScratchPool<M>) {
        match self {
            Emit::None => {}
            Emit::Rows { tables, refs, .. } => {
                pool.rows = transpose(refs);
                for (own, table) in pool.tables.iter_mut().zip(tables) {
                    own.push(table);
                }
            }
            Emit::Fused {
                shards,
                merged: Some(_),
                ..
            } => pool.fused = shards,
            Emit::Fused { shards, .. } => pool.fused = transpose(shards),
        }
    }
}

/// Fold one wave's fused shards into the next inboxes: `wave[i][w2]` is
/// what the wave's `i`-th sender (senders ascending) sent destination
/// `w2`, and `merged[w2]` that destination's accumulators. Each
/// destination folds its shards in sender order, one
/// [`FusedFold::fold`] each — so over the waves of a step every
/// destination sees exactly the one ascending-sender merge
/// [`FusedRows::merge`] makes. Destinations are independent and fold in
/// parallel.
fn fold_wave(merged: &mut [FusedFold], wave: &[Vec<FusedSlotShard>], agg: &dyn FusedAggregator) {
    par_map(merged.iter_mut().collect(), |w2, fold| {
        for sender in wave {
            fold.fold(&sender[w2], agg);
        }
    });
}

/// One destination's sealed inbox: both planes, ready to install.
type Sealed<M> = (TypedInbox<M>, MergedCols);

/// Everything one worker's compute produces in a superstep beside its
/// columnar shards, merged at the barrier in ascending worker order.
struct StepOut<M> {
    /// Sender-side accounting (sends, flops) for this worker.
    metrics: WorkerPhase,
    /// Receiver-side byte/record deltas this sender caused, per destination.
    recv_bytes: Vec<u64>,
    recv_records: Vec<u64>,
    /// Next-superstep typed-inbox residency this sender caused, per
    /// destination (columnar residency is computed from the sealed arenas
    /// at the barrier).
    inbox_bytes: Vec<u64>,
    /// The worker's typed table: every typed message it sent this step,
    /// once, in emission order. Its per-destination references live in
    /// the pooled grid.
    typed: Vec<M>,
    /// Broadcast payloads published this superstep.
    bcasts: Vec<(u64, M)>,
    /// Message volume by plane (local + remote).
    msg_bytes: MessagePlaneBytes,
    /// Whether any vertex of this worker computed (false only for a
    /// worker with no vertices).
    any_active: bool,
}

impl<M> StepOut<M> {
    /// Accounting for `n_workers` destinations and a typed table reserved
    /// for `typed` messages.
    fn new(n_workers: usize, typed: usize) -> Self {
        StepOut {
            metrics: WorkerPhase::default(),
            recv_bytes: vec![0; n_workers],
            recv_records: vec![0; n_workers],
            inbox_bytes: vec![0; n_workers],
            typed: Vec::with_capacity(typed),
            bcasts: Vec::new(),
            msg_bytes: MessagePlaneBytes::default(),
            any_active: false,
        }
    }
}

/// The Pregel engine. Construct over a layout, `run` supersteps, read
/// back states and the [`RunReport`].
pub struct PregelEngine<P: VertexProgram> {
    program: P,
    config: PregelConfig,
    /// Where every vertex lives and where its planned out-edges lead;
    /// shared, read-only.
    layout: Arc<Layout>,
    /// Per worker: one state per slot, in the layout's slot order.
    workers: Vec<Vec<P::State>>,
    /// Per worker: pending typed messages for the *next* compute.
    inbox: Vec<TypedInbox<P::Msg>>,
    /// Per worker: pending rows for the next compute, on whichever
    /// columnar plane the last superstep emitted.
    inbox_cols: Vec<MergedCols>,
    inbox_bytes: Vec<u64>,
    /// Per worker: what it sent on the materialized plane last superstep,
    /// lent back to each sender until the next compute ends; empty after
    /// a step on another plane.
    sent: Vec<SentRows>,
    /// The widest row the current run declares on each columnar plane.
    widest: Widest,
    /// Broadcast table published last superstep (identical replica on every
    /// worker in a real deployment; stored once here).
    bcast: FxHashMap<u64, P::Msg>,
    report: RunReport,
    step: usize,
    /// Reusable superstep scratch (outboxes, columnar shards).
    scratch: ScratchPool<P::Msg>,
}

impl<P: VertexProgram> PregelEngine<P> {
    /// An engine over a layout built ahead of time. `states` yields one
    /// state per vertex in the layout's engine order
    /// ([`Layout::vertices`]: worker ascending, slot ascending).
    /// Construction moves each state into its worker's exact-sized vector
    /// and does nothing else — the layout is shared, not copied, and no id
    /// is hashed.
    pub fn with_layout(
        program: P,
        config: PregelConfig,
        layout: Arc<Layout>,
        states: impl IntoIterator<Item = P::State>,
    ) -> Result<Self> {
        let n = config.spec.workers;
        if n == 0 || layout.n_workers() != n {
            return Err(Error::InvalidConfig(format!(
                "layout spans {} workers, the cluster has {n}",
                layout.n_workers()
            )));
        }
        let mut states = states.into_iter();
        let workers: Vec<Vec<P::State>> = (0..n)
            .map(|w| {
                let n_slots = layout.n_slots(w);
                let mut of_worker = Vec::with_capacity(n_slots);
                of_worker.extend(states.by_ref().take(n_slots));
                of_worker
            })
            .collect();
        let given = workers.iter().map(Vec::len).sum::<usize>() + states.count();
        if given != layout.n_vertices() {
            return Err(Error::InvalidConfig(format!(
                "layout holds {} vertices, {given} states were given",
                layout.n_vertices()
            )));
        }
        Ok(PregelEngine {
            program,
            report: RunReport::new(config.spec),
            workers,
            inbox: (0..n)
                .map(|w| TypedInbox::empty(layout.n_slots(w)))
                .collect(),
            inbox_cols: (0..n).map(|_| MergedCols::None).collect(),
            inbox_bytes: vec![0; n],
            sent: Vec::new(),
            widest: (0, 0),
            bcast: FxHashMap::default(),
            layout,
            config,
            step: 0,
            scratch: ScratchPool::default(),
        })
    }

    /// Install a scratch pool carried over from a previous run over the
    /// same partitioning (plan reuse). Pooling never changes results —
    /// reset scratch is indistinguishable from fresh — it only skips the
    /// per-superstep allocation and dense index fills.
    pub fn set_scratch(&mut self, pool: ScratchPool<P::Msg>) {
        self.scratch = pool;
    }

    /// Reclaim the scratch pool (typically after [`PregelEngine::run`]) so
    /// a later engine instance over the same plan can reuse it.
    pub fn take_scratch(&mut self) -> ScratchPool<P::Msg> {
        std::mem::take(&mut self.scratch)
    }

    pub fn n_vertices(&self) -> usize {
        self.layout.n_vertices()
    }

    /// Current superstep counter (== number of supersteps executed).
    pub fn steps_run(&self) -> usize {
        self.step
    }

    pub fn state(&self, id: u64) -> Option<&P::State> {
        let (w, slot) = self.layout.unpack(self.layout.resolve(id)?);
        Some(&self.workers[w][slot as usize])
    }

    /// Visit every vertex state (worker order, then slot order —
    /// deterministic).
    pub fn for_each_state(&self, mut f: impl FnMut(u64, &P::State)) {
        for (w, states) in self.workers.iter().enumerate() {
            for (&id, state) in self.layout.ids(w).iter().zip(states) {
                f(id, state);
            }
        }
    }

    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Consume the engine: hand every vertex state to `f` by value (same
    /// order as [`PregelEngine::for_each_state`]) and return the report.
    pub fn finish(self, mut f: impl FnMut(u64, P::State)) -> RunReport {
        for (w, states) in self.workers.into_iter().enumerate() {
            for (&id, state) in self.layout.ids(w).iter().zip(states) {
                f(id, state);
            }
        }
        self.report
    }

    /// Run `supersteps` supersteps, every vertex computing in each (see
    /// [`VertexProgram::compute`]); the loop exits early only after a
    /// superstep in which no vertex ran — a layout with no vertices.
    ///
    /// With a [`RecoveryPolicy`] configured, a checkpoint is taken at the
    /// start of the run and thereafter at the policy's cadence; a
    /// superstep that fails with a *transient* error
    /// ([`inferturbo_common::Error::is_transient`]) is replayed from the
    /// last checkpoint, up to `max_retries` times across the run. Replay
    /// is bit-identical to never having failed: states, inboxes and the
    /// report all rewind, and only the [`RunReport::retries`],
    /// [`RunReport::checkpoints`] and [`RunReport::recovered_supersteps`]
    /// counters record that recovery happened. Permanent errors — and
    /// transient errors once retries are exhausted — surface unchanged.
    pub fn run(&mut self, supersteps: usize) -> Result<()>
    where
        P: Sync,
        P::State: Send + Clone,
        P::Msg: Send + Sync,
    {
        let end = self.step + supersteps;
        self.widest = (self.step..end).fold((0, 0), |(rows, fused), step| {
            match self.program.message_layout(step) {
                None => (rows, fused),
                Some(l) if self.program.fused_aggregator(step).is_some() => {
                    (rows, fused.max(l.dim))
                }
                Some(l) => (rows.max(l.dim), fused),
            }
        });
        let mut retries_left = self.config.recovery.map_or(0, |r| r.max_retries);
        let mut checkpoint: Option<Checkpoint<P>> = None;
        while self.step < end {
            if let Some(policy) = self.config.recovery {
                // Always checkpoint at the start of a run (a mid-run fault
                // must never have nothing to rewind to), then at the
                // policy's cadence; after a restore the existing
                // checkpoint already covers this step.
                let covered = checkpoint.as_ref().map(|c| c.step) == Some(self.step);
                if !covered && (checkpoint.is_none() || policy.due(self.step)) {
                    checkpoint = Some(self.checkpoint());
                    self.report.checkpoints += 1;
                    // Durable: checkpoint records live on the recovery
                    // plane, outside the rewind window.
                    self.config.trace.emit_durable(
                        self.step as u64,
                        Site::Recovery,
                        Payload::Checkpoint {
                            step: self.step as u64,
                        },
                    );
                }
            }
            match self.superstep() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    let Some(ckpt) = checkpoint.as_ref() else {
                        return Err(e);
                    };
                    if !e.is_transient() || retries_left == 0 {
                        return Err(e);
                    }
                    retries_left -= 1;
                    let failed = self.step;
                    self.restore(ckpt);
                    self.report.retries += 1;
                    self.report.recovered_supersteps += (failed - ckpt.step + 1) as u64;
                    self.config.trace.emit_durable(
                        failed as u64,
                        Site::Recovery,
                        Payload::Retry {
                            failed_step: failed as u64,
                            resume_step: ckpt.step as u64,
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Snapshot everything the next superstep reads. Cheap relative to a
    /// superstep: resident data is cloned, spilled inbox data is shared by
    /// reference (the spill file is immutable once sealed).
    fn checkpoint(&self) -> Checkpoint<P>
    where
        P::State: Clone,
    {
        Checkpoint {
            step: self.step,
            workers: self.workers.clone(),
            inbox: self.inbox.clone(),
            inbox_cols: self.inbox_cols.iter().map(cols_snapshot).collect(),
            inbox_bytes: self.inbox_bytes.clone(),
            sent: self.sent.clone(),
            bcast: self.bcast.clone(),
            report: self.report.clone(),
            trace_mark: self.config.trace.mark(),
        }
    }

    /// Rewind to `ckpt`, leaving the checkpoint itself pristine so it can
    /// serve further replays. The recovery counters survive the rewind —
    /// they record history, not state.
    fn restore(&mut self, ckpt: &Checkpoint<P>)
    where
        P::State: Clone,
    {
        self.step = ckpt.step;
        self.workers = ckpt.workers.clone();
        self.inbox = ckpt.inbox.clone();
        self.inbox_cols = ckpt.inbox_cols.iter().map(cols_snapshot).collect();
        self.inbox_bytes = ckpt.inbox_bytes.clone();
        self.sent = ckpt.sent.clone();
        self.bcast = ckpt.bcast.clone();
        self.report = RunReport {
            retries: self.report.retries,
            checkpoints: self.report.checkpoints,
            recovered_supersteps: self.report.recovered_supersteps,
            ..ckpt.report.clone()
        };
        self.config.trace.rewind(ckpt.trace_mark);
    }

    /// Execute one superstep. Returns whether any vertex ran.
    ///
    /// Compute runs fork-join across workers, in waves of senders on a
    /// fused step in process — each wave's partials folded into the next
    /// inboxes as it ends — and in one wave otherwise; every stage after
    /// it merges in ascending worker order, making the result independent
    /// of the thread budget. A failed stage leaves the engine half-stepped:
    /// [`PregelEngine::restore`] is the only way on from there.
    fn superstep(&mut self) -> Result<bool>
    where
        P: Sync,
        P::State: Send,
        P::Msg: Send + Sync,
    {
        let step = self.step;
        let n = self.layout.n_workers();
        let phase = format!("superstep-{step}");

        // Resolve the plane, then fork-join compute, a wave of senders at
        // a time: each worker drains its inbox and fills its row of the
        // shard grid. A fused grid merged in process has one row per wave
        // slot and folds into the next inboxes as each wave ends; every
        // other grid is computed in one wave of all `n`.
        let in_waves = !self.config.transport.needs_bytes();
        let mut emit = Emit::open(
            &self.program,
            step,
            &mut self.scratch,
            &self.layout,
            in_waves,
        );
        let wave = emit.wave(n);
        let pool = &mut self.scratch;
        let mut typed = grid(std::mem::take(&mut pool.typed), n, n, Vec::new);
        let (layout, counts) = (&self.layout, &pool.counts);
        pool.outboxes
            .resize_with(n, || Outbox::new(Arc::clone(layout)));
        let (mut outs, mut failed, mut volume) = (Vec::with_capacity(n), false, (0, 0));
        for lo in (0..n).step_by(wave) {
            let hi = (lo + wave).min(n);
            let tasks: Vec<_> = self.workers[lo..hi]
                .iter_mut()
                .zip(self.inbox[lo..hi].iter_mut())
                .zip(&mut self.inbox_cols[lo..hi])
                .zip(
                    emit.sinks(hi - lo)
                        .into_iter()
                        .zip(&mut pool.outboxes[lo..hi]),
                )
                .zip(&mut typed[lo..hi])
                .collect();
            let done = par_map(
                tasks,
                |i, ((((states, inbox), cols), (sink, ob)), typed)| {
                    let w = lo + i;
                    run_worker(
                        &self.program,
                        &self.config,
                        (layout, counts, self.widest, wave),
                        &self.bcast,
                        step,
                        w,
                        (states, self.sent.get(w)),
                        (inbox, cols),
                        (sink, typed),
                        ob,
                    )
                },
            );
            // Once a worker failed the step is lost and nothing more is
            // folded, but every worker still computes — and fires its own
            // fault sites — as in one fork-join over all of them.
            failed |= done.iter().any(Result::is_err);
            outs.extend(done);
            if !failed {
                emit.end_wave(hi - lo, &mut volume);
            }
        }
        // Failures surface in ascending worker order, like a serial loop.
        let mut outs = outs.into_iter().collect::<Result<Vec<StepOut<P::Msg>>>>()?;
        // The rows lent back to their senders are read: their index goes
        // back to the pool, and their tables to whoever else holds them.
        let read = std::mem::take(&mut self.sent);
        if !read.is_empty() {
            pool.sent.push(read.into_iter().map(|s| s.at).collect());
        }

        // ---- barrier: lock-free merges, all in ascending sender order ----
        let active = outs.iter().any(|o| o.any_active);
        let (mut metrics, sent) = merge_metrics(
            &mut outs,
            &mut self.inbox_bytes,
            &mut self.bcast,
            &mut self.report,
        );
        let tables: TypedTables<P::Msg> = outs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.typed))
            .collect();
        let mut emit = emit.transposed();
        let packed = self.config.transport.needs_bytes().then(|| emit.packed());
        let packed = packed.flatten();
        let exchanged = self.exchange(step, &emit, packed.as_deref(), (&typed, &tables))?;
        self.report.wire_bytes += exchanged.wire_bytes;
        let kept = packed.is_none().then_some(&mut emit);
        let sealed = self.seal(step, (&typed, tables), exchanged.dests, kept)?;
        self.sent = emit.sent_rows();
        emit.reclaim(&mut self.scratch);
        self.scratch.typed = typed;
        let spilled = self.install(sealed);
        self.check_memory(&phase, &mut metrics)?;
        // Flight recorder: emit at the barrier only, after every check
        // passed — a failed superstep leaves no partial records (and a
        // replayed one re-emits identical ones).
        if self.config.trace.enabled() {
            self.trace_step(&phase, &metrics, volume, active, sent, spilled);
        }
        self.report.push_phase(phase, metrics);
        self.step += 1;
        Ok(active)
    }

    /// Barrier stage: hand every destination's shards to the transport,
    /// which fires the SealBarrier/SpillWrite fault sites per destination
    /// and merges what it was handed in ascending sender order (see the
    /// transport contract). Every plane goes only to a backend that moves
    /// bytes — the fused grid borrowed, `packed` rows, and per destination
    /// and sender the typed records its `(slot, table index)` references
    /// name, each message encoded once and its bytes copied per reference.
    /// Otherwise everything stays with the engine, which seals it itself:
    /// in process the call only fires the fault sites.
    fn exchange(
        &self,
        step: usize,
        emit: &Emit<'_>,
        packed: Option<&[Vec<RowShard>]>,
        (typed, tables): (&[Vec<Refs>], &[Vec<P::Msg>]),
    ) -> Result<ExchangeOut> {
        // `typed` is sender-major: `typed[s][w2]` is what sender `s` sent
        // worker `w2`.
        let encoded: Option<Vec<Vec<Vec<u8>>>> = self.config.transport.needs_bytes().then(|| {
            let table = |t: &Vec<P::Msg>| t.iter().map(Encode::to_bytes).collect();
            tables.iter().map(table).collect()
        });
        let records = |w2: usize| -> Option<Vec<EncodedRecords>> {
            let encoded = encoded.as_ref()?;
            let sender = |(sent, bytes): (&Vec<Refs>, &Vec<Vec<u8>>)| {
                sent[w2]
                    .iter()
                    .map(|&(slot, at)| (slot, bytes[at as usize].clone()))
                    .collect()
            };
            Some(typed.iter().zip(encoded).map(sender).collect())
        };
        let dests = (0..self.layout.n_workers())
            .map(|w2| DestShards {
                n_slots: self.layout.n_slots(w2),
                cols: emit.dest(w2, packed),
                legacy: records(w2),
            })
            .collect();
        let ex = Exchange {
            step,
            faults: self.config.faults.as_ref(),
            spill: self.config.spill.as_ref(),
            dests,
        };
        let merged = self.config.transport.exchange(ex);
        merged.map_err(|e| e.in_phase(format!("seal superstep-{step}")))
    }

    /// Barrier stage: build the next superstep's inboxes from the merged
    /// planes. The typed half references the senders' typed tables
    /// through their sender-major reference grid `typed`
    /// ([`TypedInbox::seal`]), or — what came back over the wire — one
    /// table of the decoded records, one reference each. The columnar
    /// half as merged; or, `kept` with the engine, sealed here —
    /// materialized rows as references into the senders' row tables
    /// ([`RowArena::seal_refs`]), fused accumulators as the waves folded
    /// them ([`FusedFold::seal`]). Destinations are independent, so this
    /// runs fork-join like the merge itself; failures surface in ascending
    /// destination order.
    fn seal(
        &self,
        step: usize,
        (typed, tables): (&[Vec<Refs>], TypedTables<P::Msg>),
        merged: Vec<DestMerged>,
        kept: Option<&mut Emit<'_>>,
    ) -> Result<Vec<Sealed<P::Msg>>>
    where
        P::Msg: Send + Sync,
    {
        let (layout, spill) = (&self.layout, self.config.spill.as_ref());
        let (lent, folds) = match kept {
            Some(Emit::Rows {
                dim, tables, refs, ..
            }) => {
                let tables = tables.iter().cloned().collect::<Arc<[RowTable]>>();
                (Some((*dim, tables, &*refs)), Vec::new())
            }
            Some(Emit::Fused {
                merged: Some(folds),
                ..
            }) => (None, std::mem::take(folds)),
            _ => (None, Vec::new()),
        };
        let mut folds = folds.into_iter();
        let merged: Vec<_> = merged.into_iter().map(|m| (m, folds.next())).collect();
        let sealed = par_map(merged, |w2, (merged, fold)| {
            let n_slots = layout.n_slots(w2);
            let typed = match merged.legacy {
                None => {
                    let refs = typed.iter().map(|sent| &sent[w2]);
                    TypedInbox::seal(n_slots, refs, Arc::clone(&tables))?
                }
                Some(records) => {
                    let refs = records.iter().enumerate().map(|(i, &(s, _))| (s, i as u32));
                    let table = records.iter().map(|(_, bytes)| P::Msg::from_bytes(bytes));
                    let table = table.collect::<Result<Vec<_>>>()?;
                    let refs: Refs = refs.collect();
                    TypedInbox::seal(n_slots, std::iter::once(&refs), Arc::new([table]))?
                }
            };
            let cols = match (&lent, fold) {
                (Some((dim, tables, refs)), _) => {
                    let tables = Arc::clone(tables);
                    MergedCols::Rows(RowArena::seal_refs(
                        *dim, n_slots, &refs[w2], tables, spill,
                    )?)
                }
                (None, Some(fold)) => MergedCols::Fused(fold.seal(spill)?),
                (None, None) => merged.cols,
            };
            Ok((typed, cols))
        })
        .into_iter()
        .collect::<Result<Vec<_>>>();
        sealed.map_err(|e| e.in_phase(format!("seal superstep-{step}")))
    }

    /// Barrier stage: install the sealed inboxes and charge their row data
    /// to the next superstep's residency. Returns the bytes they spilled.
    fn install(&mut self, sealed: Vec<Sealed<P::Msg>>) -> u64 {
        let mut step_spilled = 0;
        for (w2, (arena, cols)) in sealed.into_iter().enumerate() {
            let (resident, spilled) = cols_bytes(&cols);
            self.inbox_bytes[w2] += resident;
            step_spilled += spilled;
            self.inbox[w2] = arena;
            self.inbox_cols[w2] = cols;
        }
        self.report.spilled_bytes += step_spilled;
        step_spilled
    }

    /// Barrier stage, the memory model: resident = vertex states + incoming
    /// message buffers (legacy arena bytes + columnar arena/accumulator
    /// bytes), checked per worker against the cluster spec's cap.
    fn check_memory(&self, phase: &str, metrics: &mut [WorkerPhase]) -> Result<()> {
        for (w, m) in metrics.iter_mut().enumerate() {
            let state_bytes: u64 = self.workers[w]
                .iter()
                .map(|state| self.program.state_bytes(state))
                .sum();
            let resident = state_bytes + self.inbox_bytes[w];
            m.touch_mem(resident);
            let fits = self.config.spec.check_memory(w, resident);
            fits.map_err(|e| e.in_phase(phase))?;
        }
        Ok(())
    }

    /// Barrier stage, the flight recorder: per-worker phase accounting,
    /// the transport's shape, the superstep summary. Single-threaded, in
    /// ascending worker order, so the trace is thread-count invariant.
    fn trace_step(
        &self,
        phase: &str,
        metrics: &[WorkerPhase],
        (shards, rows): (u64, u64),
        active: bool,
        sent: MessagePlaneBytes,
        spilled_bytes: u64,
    ) {
        let trace = &self.config.trace;
        let step = self.step as u64;
        for (w, m) in metrics.iter().enumerate() {
            trace.emit(
                step,
                Site::Worker(w as u32),
                Payload::WorkerPhase {
                    phase: phase.to_owned(),
                    records_in: m.records_in,
                    records_out: m.records_out,
                    bytes_in: m.bytes_in,
                    bytes_out: m.bytes_out,
                    flops: m.flops,
                    mem_peak: m.mem_peak,
                },
            );
        }
        // Transport shape first, then the superstep summary. Only
        // backend-invariant counts — never the backend name or wire
        // bytes — so the trace stays byte-identical across backends.
        trace.emit(
            step,
            Site::Engine,
            Payload::Transport {
                phase: phase.to_owned(),
                dests: metrics.len() as u64,
                shards,
                rows,
                legacy_records: self.inbox.iter().map(|a| a.sources.len() as u64).sum(),
            },
        );
        trace.emit(
            step,
            Site::Engine,
            Payload::Superstep {
                phase: phase.to_owned(),
                active,
                rows_sealed: metrics.iter().map(|m| m.records_in).sum(),
                columnar_bytes: sent.columnar,
                legacy_bytes: sent.legacy,
                spilled_bytes,
            },
        );
    }
}

/// Barrier stage: fold every sender's accounting into the per-worker
/// phase metrics (sender side as computed, receiver side summed over
/// senders), the next inboxes' typed-plane residency, the next broadcast
/// table and the report's plane totals. Returns the metrics and what the
/// step sent by plane.
fn merge_metrics<M>(
    outs: &mut [StepOut<M>],
    inbox_bytes: &mut [u64],
    bcast: &mut FxHashMap<u64, M>,
    report: &mut RunReport,
) -> (Vec<WorkerPhase>, MessagePlaneBytes) {
    let mut metrics: Vec<WorkerPhase> = outs.iter().map(|o| o.metrics.clone()).collect();
    let mut sent = MessagePlaneBytes::default();
    inbox_bytes.fill(0);
    bcast.clear();
    for o in outs {
        for (w2, m) in metrics.iter_mut().enumerate() {
            m.bytes_in += o.recv_bytes[w2];
            m.records_in += o.recv_records[w2];
            inbox_bytes[w2] += o.inbox_bytes[w2];
        }
        sent.add(o.msg_bytes);
        report.message_bytes.add(o.msg_bytes);
        bcast.extend(o.bcasts.drain(..));
    }
    (metrics, sent)
}

/// Where one worker's spooled rows go this superstep: its row of the
/// step's [`Emit`] grid — one shard per destination worker — with the
/// fused fold resolved once, so the per-edge loop below carries neither a
/// plane test nor a virtual call.
enum RowSink<'a> {
    /// No row plane this step (a row sent anyway was already refused by
    /// the outbox).
    None,
    /// The worker's row table, per destination worker its
    /// `(slot, table row)` references, and per slot the table row it wrote.
    Rows {
        dim: usize,
        table: &'a mut RowBlock,
        refs: &'a mut [Refs],
        sent: &'a mut Vec<u32>,
    },
    Fused {
        dim: usize,
        shards: &'a mut [FusedSlotShard],
        agg: &'a dyn FusedAggregator,
        /// `agg`'s closed-form fold, when it names one
        /// ([`FusedAggregator::wire_kind`] — bit-identical by that
        /// method's contract): [`fold_spans`] is instantiated over it, and
        /// `AggKind`'s fold and the shard's row accessors are `#[inline]`
        /// in `inferturbo_common`, so the per-edge loop is the lane loop
        /// itself. Through `agg` it is a virtual call per edge.
        kind: Option<AggKind>,
    },
}

impl RowSink<'_> {
    fn row_dim(&self) -> Option<usize> {
        match self {
            RowSink::None => None,
            RowSink::Rows { dim, .. } | RowSink::Fused { dim, .. } => Some(*dim),
        }
    }

    /// Make every (possibly pooled) cell of sender `w`'s row of the grid
    /// indistinguishable from a fresh one while keeping its allocations,
    /// so steady-state scatter allocates nothing; a fused shard clears its
    /// dense slot index sparsely instead of refilling O(destination
    /// slots). Each cell is then reserved at the rows `counts` gives it,
    /// as wide as the run's widest row on the sink's plane: a no-op once
    /// it has been. A fused row is a wave slot, computing in waves of
    /// `wave` senders: its cells are reserved for the largest of the
    /// senders the slot hosts, so none regrows as the waves go by.
    fn reset(
        &mut self,
        layout: &Layout,
        (w, wave): (usize, usize),
        counts: &CellCounts,
        widest: Widest,
    ) {
        match self {
            RowSink::None => {}
            RowSink::Rows {
                dim,
                table,
                refs,
                sent,
            } => {
                table.reset(*dim);
                table.reserve_exact(counts.table_rows(w) * widest.0);
                for (w2, refs) in refs.iter_mut().enumerate() {
                    refs.clear();
                    refs.reserve_exact(counts.refs(w, w2));
                }
                sent.clear();
                sent.reserve_exact(layout.n_slots(w));
                sent.resize(layout.n_slots(w), u32::MAX);
            }
            RowSink::Fused { dim, shards, .. } => {
                let hosted = (w % wave..layout.n_workers()).step_by(wave);
                for (w2, sh) in shards.iter_mut().enumerate() {
                    sh.reset(*dim, layout.n_slots(w2));
                    let most = hosted.clone().map(|s| counts.partials(s, w2)).max();
                    sh.reserve_exact(most.unwrap_or(0), widest.1);
                }
            }
        }
    }

    /// The engine's one routing loop: walk slot `from`'s spool front to
    /// back, each row to every route of its span — written once into the
    /// worker's row table (the last one written is the row `from` sent)
    /// and referenced by `(slot, table row)` from each destination's list,
    /// or folded lane-wise into the destination's accumulator shard
    /// (copy-on-first). Per (sender worker, destination) that is emission
    /// order, which is the whole fold-order contract on the sender side.
    fn route<M>(&mut self, layout: &Layout, ob: &Outbox<M>, from: usize) {
        match self {
            RowSink::None => debug_assert!(ob.span_ends.is_empty()),
            RowSink::Rows {
                dim,
                table,
                refs,
                sent,
            } => ob.for_each_span(*dim, |row, routes| {
                let at = table.len() as u32;
                table.push_row(row);
                sent[from] = at;
                for &r in routes {
                    let (w2, slot) = layout.unpack(r);
                    refs[w2].push((slot, at));
                }
            }),
            RowSink::Fused {
                dim,
                shards,
                agg,
                kind,
            } => match kind {
                Some(kind) => fold_spans(layout, ob, *dim, shards, kind),
                None => fold_spans(layout, ob, *dim, shards, *agg),
            },
        }
    }

    /// `(records, wire bytes)` of the shard bound for worker `w2`: one
    /// record per row it holds — a materialized row, or a fused partial
    /// (one per touched slot, in first-touch order) — each the shared
    /// [`row_payload_len`] framing plus its destination's varint. `ids` is
    /// `w2`'s slot table, which names the destination every record is
    /// framed with. The framing is summed shard-wise (it is the same for
    /// every record of a step); only the destination varint is per record.
    fn shipped(&self, w2: usize, ids: &[u64]) -> (u64, u64) {
        let addressed = |slots: &mut dyn Iterator<Item = u32>| -> usize {
            slots.map(|s| varint_len(ids[s as usize])).sum()
        };
        let (records, payload, addressed) = match self {
            RowSink::None => return (0, 0),
            RowSink::Rows { dim, refs, .. } => {
                let refs = &refs[w2];
                let payload = refs.len() * row_payload_len(*dim, None);
                (
                    refs.len(),
                    payload,
                    addressed(&mut refs.iter().map(|r| r.0)),
                )
            }
            RowSink::Fused { shards, .. } => {
                let sh = &shards[w2];
                (
                    sh.len(),
                    sh.payload_len(),
                    addressed(&mut sh.keys.iter().copied()),
                )
            }
        };
        (records as u64, (payload + addressed) as u64)
    }
}

/// The fused arm of [`RowSink::route`], generic over the fold so a
/// closed-form [`AggKind`] inlines into the per-edge loop.
fn fold_spans<M>(
    layout: &Layout,
    ob: &Outbox<M>,
    dim: usize,
    shards: &mut [FusedSlotShard],
    agg: &(impl FusedAggregator + ?Sized),
) {
    ob.for_each_span(dim, |row, routes| {
        for &r in routes {
            let (w2, slot) = layout.unpack(r);
            shards[w2].accumulate(slot, row, 1, agg);
        }
    });
}

/// One worker's compute for one superstep: drain the inbox (both planes)
/// slot by slot, run the vertex program, and spool outgoing messages into
/// per-destination shards — typed messages once into the worker's typed
/// table with a reference per route in `typed`, fixed-width rows through
/// `sink` into columnar row shards or fused accumulators.
/// Runs on its own thread; touches nothing shared mutably.
#[expect(
    clippy::too_many_arguments,
    reason = "one worker's superstep borrows disjoint parts of the engine, grouped by plane"
)]
fn run_worker<P: VertexProgram>(
    program: &P,
    config: &PregelConfig,
    (layout, counts, widest, wave): (&Arc<Layout>, &CellCounts, Widest, usize),
    bcast: &FxHashMap<u64, P::Msg>,
    step: usize,
    w: usize,
    (states, sent): (&mut [P::State], Option<&SentRows>),
    (arena, cols_in): (&mut TypedInbox<P::Msg>, &mut MergedCols),
    (mut sink, typed): (RowSink<'_>, &mut [Refs]),
    ob: &mut Outbox<P::Msg>,
) -> Result<StepOut<P::Msg>> {
    if let Some(inj) = &config.faults {
        if let Some(e) = inj.worker_compute(w, step) {
            return Err(e);
        }
        if let Some(policy) = &config.spill {
            if let Some(e) = inj.spill_read(w, step, &policy.dir) {
                return Err(e);
            }
        }
    }
    let n_workers = layout.n_workers();
    let mut out = StepOut::new(n_workers, counts.typed_table(w));
    // One pooled outbox reused across every vertex (and, via the scratch
    // pool, across supersteps and runs): cleared between computes,
    // capacity retained, so steady-state sends allocate nothing.
    ob.reset(layout, sink.row_dim());
    sink.reset(layout, (w, wave), counts, widest);
    for (w2, refs) in typed.iter_mut().enumerate() {
        refs.clear();
        refs.reserve_exact(counts.typed_refs(w, w2));
    }

    for (s, (state, &vertex_id)) in states.iter_mut().zip(layout.ids(w)).enumerate() {
        let (rows, messages) = (cols_rows(cols_in, s)?, arena.slot(s));
        out.any_active = true;
        let inbox = Inbox {
            rows,
            messages,
            own_row: sent.map_or(&[], |sent| sent.of(s)),
            broadcast: &|src: u64| bcast.get(&src),
        };
        ob.clear();
        let computed = program.compute(step, vertex_id, state, inbox, ob);
        computed.map_err(|e| e.in_phase(format!("superstep-{step}, vertex {vertex_id}")))?;
        out.metrics.flops += ob.flops;
        match ob.misuse.take() {
            None => {}
            Some(SendMisuse::Layout(msg)) => {
                return Err(Error::InvalidConfig(format!("vertex {vertex_id}: {msg}")));
            }
            Some(SendMisuse::UnknownVertex(dst)) => return Err(unknown_vertex(dst)),
        }

        // Route broadcasts: payload replicated to every remote worker;
        // sender pays (workers-1) copies, each remote worker receives one.
        for payload in ob.broadcasts.drain(..) {
            let len = (payload.encoded_len() + varint_len(vertex_id)) as u64;
            for w2 in 0..n_workers {
                if w2 != w {
                    out.recv_bytes[w2] += len;
                    out.recv_records[w2] += 1;
                }
            }
            out.metrics.bytes_out += len * (n_workers as u64 - 1);
            out.metrics.records_out += n_workers as u64 - 1;
            out.msg_bytes.legacy += len * (n_workers as u64 - 1);
            // Memory: the table is replicated on every worker.
            for b in out.inbox_bytes.iter_mut() {
                *b += len;
            }
            out.bcasts.push((vertex_id, payload));
        }

        // Route typed messages, in call order, each to its span of routes.
        let mut start = 0;
        for (msg, &end) in ob.messages.drain(..).zip(&ob.msg_span_ends) {
            deliver(layout, w, msg, &ob.msg_routes[start..end], typed, &mut out);
            start = end;
        }

        sink.route(layout, ob, s);
    }
    // The inbox is read: free it before the next one is sealed beside it.
    arena.drain();
    *cols_in = MergedCols::None;

    // Row accounting, once per worker, from the shards' own slot lists.
    for w2 in 0..n_workers {
        let (records, bytes) = sink.shipped(w2, layout.ids(w2));
        if w2 != w {
            out.metrics.bytes_out += bytes;
            out.metrics.records_out += records;
            out.recv_bytes[w2] += bytes;
            out.recv_records[w2] += records;
        }
        out.msg_bytes.columnar += bytes;
    }
    Ok(out)
}

fn unknown_vertex(dst: u64) -> Error {
    Error::InvalidGraph(format!("message to unknown vertex {dst}"))
}

/// Route one typed message to every route of its span: stored once, in
/// the sender's typed table, and referenced by `(slot, table index)` from
/// the list of each route's destination worker, with full byte accounting
/// on both sides. The message is sized once; each destination's id (its
/// wire address) is read from the slot table, not looked up.
fn deliver<M: Encode>(
    layout: &Layout,
    from_worker: usize,
    msg: M,
    routes: &[Route],
    refs: &mut [Refs],
    out: &mut StepOut<M>,
) {
    let len = msg.encoded_len();
    let at = out.typed.len() as u32;
    for &route in routes {
        let (w2, slot) = layout.unpack(route);
        let wire_len = (len + varint_len(layout.id_of(route))) as u64;
        if w2 != from_worker {
            out.metrics.send(wire_len);
            out.recv_bytes[w2] += wire_len;
            out.recv_records[w2] += 1;
        }
        out.inbox_bytes[w2] += wire_len;
        out.msg_bytes.legacy += wire_len;
        refs[w2].push((slot, at));
    }
    out.typed.push(msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::MessageLayout;
    use inferturbo_common::hash::partition_of;
    use inferturbo_common::{Parallelism, Xoshiro256};

    /// An engine over vertices given as `(id, state)` in load order, for
    /// programs that address messages by id: no planned out-edges.
    fn engine_of<P: VertexProgram>(
        program: P,
        cfg: PregelConfig,
        vertices: Vec<(u64, P::State)>,
    ) -> PregelEngine<P> {
        let ids = vertices.iter().map(|(id, _)| (*id, &[][..]));
        let layout = Layout::planned(cfg.spec.workers, ids).unwrap();
        let mut states: Vec<_> = vertices.into_iter().map(|(_, s)| Some(s)).collect();
        let in_engine_order: Vec<P::State> = layout
            .vertices()
            .map(|v| states[v.position].take().unwrap())
            .collect();
        PregelEngine::with_layout(program, cfg, Arc::new(layout), in_engine_order).unwrap()
    }

    /// PageRank over an explicit neighbour list held in vertex state.
    struct PageRank {
        n: f64,
        damping: f64,
    }

    #[derive(Clone)]
    struct PrState {
        rank: f64,
        nbrs: Vec<u64>,
    }

    impl VertexProgram for PageRank {
        type State = PrState;
        type Msg = f32;

        fn compute(
            &self,
            step: usize,
            _vertex: u64,
            state: &mut PrState,
            inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            if step > 0 {
                let sum: f64 = inbox.messages.iter().map(|&m| m as f64).sum();
                state.rank = (1.0 - self.damping) / self.n + self.damping * sum;
            }
            if !state.nbrs.is_empty() {
                let share = (state.rank / state.nbrs.len() as f64) as f32;
                for &nb in &state.nbrs {
                    out.send(nb, share);
                }
            }
            out.add_flops(inbox.messages.len() as f64 + 2.0);
            Ok(())
        }
    }

    /// 4-node graph: 0->1, 0->2, 1->2, 2->0, 3->2 (3 is a source).
    fn pagerank_engine(workers: usize) -> PregelEngine<PageRank> {
        let program = PageRank {
            n: 4.0,
            damping: 0.85,
        };
        let adj: Vec<(u64, Vec<u64>)> =
            vec![(0, vec![1, 2]), (1, vec![2]), (2, vec![0]), (3, vec![2])];
        let vertices = (adj.into_iter())
            .map(|(id, nbrs)| (id, PrState { rank: 0.25, nbrs }))
            .collect();
        engine_of(
            program,
            PregelConfig::new(ClusterSpec::test_spec(workers)),
            vertices,
        )
    }

    /// Reference dense power iteration.
    fn pagerank_reference(iters: usize) -> Vec<f64> {
        let edges: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)];
        let outdeg = [2.0, 1.0, 1.0, 1.0];
        let mut rank = vec![0.25f64; 4];
        for _ in 0..iters {
            let mut next = vec![0.15 / 4.0; 4];
            for &(s, d) in &edges {
                next[d] += 0.85 * rank[s] / outdeg[s];
            }
            rank = next;
        }
        rank
    }

    #[test]
    fn pagerank_matches_dense_reference() {
        let mut eng = pagerank_engine(3);
        eng.run(11).unwrap(); // step 0 scatter + 10 updates
        let want = pagerank_reference(10);
        for (id, expect) in want.iter().enumerate() {
            let got = eng.state(id as u64).unwrap().rank;
            // messages travel as f32, so tolerance is f32-precision bound
            assert!(
                (got - expect).abs() < 1e-6,
                "vertex {id}: got {got} want {expect}"
            );
        }
    }

    /// SSSP: a vertex relaxes and forwards only when its distance
    /// improves, so the distances settle after the longest shortest path.
    struct Sssp;

    #[derive(Clone)]
    struct SsspState {
        dist: f32,
        nbrs: Vec<(u64, f32)>,
    }

    impl VertexProgram for Sssp {
        type State = SsspState;
        type Msg = f32;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            state: &mut SsspState,
            inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            let incoming = inbox.messages.iter().copied().fold(f32::INFINITY, f32::min);
            let best = if step == 0 && vertex == 0 {
                0.0
            } else {
                incoming
            };
            if best < state.dist {
                state.dist = best;
                for &(nb, w) in &state.nbrs {
                    out.send(nb, best + w);
                }
            }
            Ok(())
        }
    }

    #[test]
    fn sssp_converges_within_a_fixed_superstep_count() {
        let cfg = PregelConfig::new(ClusterSpec::test_spec(2));
        // 0 -1-> 1 -1-> 2 -1-> 3; plus shortcut 0 -10-> 3
        let adj: Vec<(u64, Vec<(u64, f32)>)> = vec![
            (0, vec![(1, 1.0), (3, 10.0)]),
            (1, vec![(2, 1.0)]),
            (2, vec![(3, 1.0)]),
            (3, vec![]),
        ];
        let dist = f32::INFINITY;
        let vertices = (adj.into_iter())
            .map(|(id, nbrs)| (id, SsspState { dist, nbrs }))
            .collect();
        let mut eng = engine_of(Sssp, cfg, vertices);
        // The shortest path to vertex 3 has three hops: steps 0..=3 settle
        // it, and the extra steps must not move any distance.
        eng.run(6).unwrap();
        assert_eq!(eng.steps_run(), 6);
        assert_eq!(eng.state(0).unwrap().dist, 0.0);
        assert_eq!(eng.state(1).unwrap().dist, 1.0);
        assert_eq!(eng.state(2).unwrap().dist, 2.0);
        assert_eq!(eng.state(3).unwrap().dist, 3.0);
    }

    #[test]
    fn oom_is_reported_with_worker_and_phase() {
        let spec = ClusterSpec::test_spec(1).with_memory(8);
        let cfg = PregelConfig::new(spec);
        let mut eng = pagerank_engine_with(cfg);
        let err = eng.run(3).unwrap_err();
        assert!(err.is_oom());
        assert!(err.to_string().contains("superstep-0"));
    }

    fn pagerank_engine_with(cfg: PregelConfig) -> PregelEngine<PageRank> {
        let program = PageRank {
            n: 2.0,
            damping: 0.85,
        };
        let vertex = |nb| PrState {
            rank: 0.5,
            nbrs: vec![nb],
        };
        engine_of(program, cfg, vec![(0, vertex(1)), (1, vertex(0))])
    }

    #[test]
    fn message_to_unknown_vertex_errors() {
        struct Bad;
        impl VertexProgram for Bad {
            type State = ();
            type Msg = f32;
            fn compute(
                &self,
                _s: usize,
                _v: u64,
                _state: &mut (),
                _inbox: Inbox<'_, f32>,
                out: &mut Outbox<f32>,
            ) -> Result<()> {
                out.send(999, 1.0);
                Ok(())
            }
        }
        let cfg = PregelConfig::new(ClusterSpec::test_spec(1));
        let mut eng = engine_of(Bad, cfg, vec![(0, ())]);
        let err = eng.run(1).unwrap_err();
        assert!(err.to_string().contains("unknown vertex 999"));
    }

    #[test]
    fn broadcast_reaches_all_workers_next_step() {
        struct Caster;
        #[derive(Default, Clone)]
        struct CState {
            seen: Option<f32>,
        }
        impl VertexProgram for Caster {
            type State = CState;
            type Msg = f32;
            fn compute(
                &self,
                step: usize,
                vertex: u64,
                state: &mut CState,
                inbox: Inbox<'_, f32>,
                out: &mut Outbox<f32>,
            ) -> Result<()> {
                if step == 0 && vertex == 7 {
                    out.broadcast(42.5);
                }
                if step == 1 {
                    state.seen = (inbox.broadcast)(7).copied();
                }
                Ok(())
            }
        }
        let spec = ClusterSpec::test_spec(4);
        let vertices = (0..16u64).map(|id| (id, CState::default())).collect();
        let mut eng = engine_of(Caster, PregelConfig::new(spec), vertices);
        eng.run(2).unwrap();
        for id in 0..16u64 {
            assert_eq!(eng.state(id).unwrap().seen, Some(42.5), "vertex {id}");
        }
        // broadcaster paid workers-1 sends
        let totals = eng.report().worker_totals();
        let total_records: u64 = totals.iter().map(|t| t.records_out).sum();
        assert_eq!(total_records, 3);
    }

    // ---- columnar plane -----------------------------------------------------

    const DIM: usize = 3;

    /// Feature aggregation on the columnar plane: step 0 scatters each
    /// vertex's dim-3 feature row to its neighbours, step 1 stores the
    /// copy-first sum (and raw message count) in the state. Works on both
    /// row planes — fused and materialized — which makes it the probe the
    /// fold-order oracle below is compared against.
    struct RowProg {
        fused: bool,
    }

    #[derive(Clone)]
    struct RowState {
        feat: Vec<f32>,
        nbrs: Vec<u64>,
        agg: Vec<f32>,
        count: u32,
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

    fn fold_row(acc: &mut Vec<f32>, row: &[f32]) {
        if acc.is_empty() {
            acc.extend_from_slice(row);
        } else {
            for (a, b) in acc.iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// One draw of a fused grid, `[sender][destination]`: 1–9 senders, 1–3
    /// destinations of 0–6 slots, 1–3 lanes. A shard is empty one time in
    /// four and otherwise folds a few rows (each carrying 1–3 messages)
    /// into random slots, so some slots are left untouched; lanes come
    /// from a pool heavy in `-0.0`, `0.0` and NaN, so first partials carry
    /// both.
    fn draw_fused_grid(
        seed: u64,
        agg: &dyn FusedAggregator,
    ) -> (usize, Vec<usize>, Vec<Vec<FusedSlotShard>>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let senders = rng.range_u64(1, 10) as usize;
        let n_slots: Vec<usize> = (0..rng.range_u64(1, 4)).map(|_| rng.index(7)).collect();
        let dim = rng.range_u64(1, 4) as usize;
        let lanes = [-0.0, 0.0, f32::NAN, 1.5, -2.25, f32::INFINITY, 3.0e-39];
        let grid = (0..senders)
            .map(|_| {
                let shards = n_slots.iter().map(|&slots| {
                    let mut sh = FusedSlotShard::new(dim, slots);
                    if slots > 0 && !rng.chance(0.25) {
                        for _ in 0..rng.range_u64(1, 6) {
                            let row: Vec<f32> = (0..dim)
                                .map(|_| match rng.index(lanes.len() + 1) {
                                    i if i < lanes.len() => lanes[i],
                                    _ => rng.next_f32() * 8.0 - 4.0,
                                })
                                .collect();
                            let slot = rng.index(slots) as u32;
                            sh.accumulate(slot, &row, rng.range_u64(1, 4) as u32, agg);
                        }
                    }
                    sh
                });
                shards.collect()
            })
            .collect();
        (dim, n_slots, grid)
    }

    /// Per slot `(count, lane bits)` of a sealed fused inbox.
    fn fused_bits(rows: &mut FusedRows, n_slots: usize) -> Vec<(u32, Vec<u32>)> {
        (0..n_slots)
            .map(|s| {
                let row = rows.row(s).unwrap().iter().map(|x| x.to_bits()).collect();
                (rows.count(s), row)
            })
            .collect()
    }

    /// The wave merge is `FusedRows::merge`: folding a fused grid a wave of
    /// senders at a time ([`fold_wave`]), for every wave size from 1 to
    /// the sender count, seals to the same accumulators, counts and bits
    /// as one `FusedRows::merge` over all the senders — and both equal
    /// the merge written out here: per slot, partials in ascending sender
    /// order, the first copied, the rest folded. Sum, mean (a sum fold
    /// through a `dyn` aggregator without a wire kind; the count divides
    /// later) and max.
    #[test]
    fn prop_the_wave_merge_is_fused_rows_merge() {
        let aggs: [(&str, &dyn FusedAggregator); 3] = [
            ("sum", &AggKind::Sum),
            ("mean", &SumAgg),
            ("max", &AggKind::Max),
        ];
        for case in 0..400u64 {
            let (name, agg) = aggs[case as usize % aggs.len()];
            let (dim, n_slots, grid) = draw_fused_grid(case, agg);
            let senders = grid.len();
            // The same draw again, destination-major.
            let mut by_dest: Vec<Vec<FusedSlotShard>> =
                n_slots.iter().map(|_| Vec::new()).collect();
            for sender in draw_fused_grid(case, agg).2 {
                for (dest, sh) in by_dest.iter_mut().zip(sender) {
                    dest.push(sh);
                }
            }
            let failed = |what: &str| {
                format!(
                    "case {case} ({name}, {senders} senders, slots {n_slots:?}, dim {dim}): {what}"
                )
            };
            // The merge written out.
            let mut oracle = Vec::new();
            for (w2, &slots) in n_slots.iter().enumerate() {
                let mut acc = vec![vec![agg.identity(); dim]; slots];
                let mut counts = vec![0u32; slots];
                for sender in &grid {
                    let sh = &sender[w2];
                    for (i, &slot) in sh.keys.iter().enumerate() {
                        let s = slot as usize;
                        if counts[s] == 0 {
                            acc[s] = sh.rows.row(i).to_vec();
                        } else {
                            agg.accumulate(&mut acc[s], sh.rows.row(i));
                        }
                        counts[s] += sh.counts[i];
                    }
                }
                let bits = |row: &Vec<f32>| row.iter().map(|x| x.to_bits()).collect();
                let slot_bits = counts.into_iter().zip(acc.iter().map(bits));
                oracle.push(slot_bits.collect::<Vec<(u32, Vec<u32>)>>());
            }
            for (w2, &slots) in n_slots.iter().enumerate() {
                let mut merged = FusedRows::merge(dim, slots, &by_dest[w2], agg, None).unwrap();
                assert_eq!(
                    fused_bits(&mut merged, slots),
                    oracle[w2],
                    "{}",
                    failed(&format!("FusedRows::merge, destination {w2}"))
                );
            }
            for wave in 1..=senders {
                let threads = 1 + case as usize % 3;
                let sealed = Parallelism::with(threads, || {
                    let open = n_slots
                        .iter()
                        .map(|&slots| FusedRows::open(dim, slots, agg));
                    let mut folds: Vec<FusedFold> = open.collect();
                    for lo in (0..senders).step_by(wave) {
                        fold_wave(&mut folds, &grid[lo..(lo + wave).min(senders)], agg);
                    }
                    folds
                        .into_iter()
                        .map(|f| f.seal(None).unwrap())
                        .collect::<Vec<_>>()
                });
                for (w2, (mut rows, &slots)) in sealed.into_iter().zip(&n_slots).enumerate() {
                    assert_eq!(
                        fused_bits(&mut rows, slots),
                        oracle[w2],
                        "{}",
                        failed(&format!("waves of {wave}, destination {w2}"))
                    );
                }
            }
        }
    }

    impl VertexProgram for RowProg {
        type State = RowState;
        type Msg = Vec<f32>;

        fn compute(
            &self,
            step: usize,
            _vertex: u64,
            state: &mut RowState,
            inbox: Inbox<'_, Vec<f32>>,
            out: &mut Outbox<Vec<f32>>,
        ) -> Result<()> {
            if step == 0 {
                for &nb in &state.nbrs {
                    out.send_row(nb, &state.feat);
                }
                return Ok(());
            }
            let mut acc: Vec<f32> = Vec::new();
            let mut count = 0u32;
            match inbox.rows {
                RowsIn::None => {}
                RowsIn::Rows(rows) => {
                    for chunk in rows.iter() {
                        fold_row(&mut acc, chunk);
                        count += 1;
                    }
                }
                RowsIn::Fused {
                    acc: facc,
                    count: c,
                    ..
                } => {
                    if c > 0 {
                        acc = facc.to_vec();
                        count = c;
                    }
                }
            }
            for m in inbox.messages {
                fold_row(&mut acc, m);
                count += 1;
            }
            state.agg = acc;
            state.count = count;
            Ok(())
        }

        fn message_layout(&self, step: usize) -> Option<MessageLayout> {
            (step == 0).then_some(MessageLayout { dim: DIM })
        }

        fn fused_aggregator(&self, step: usize) -> Option<&dyn FusedAggregator> {
            if self.fused && step == 0 {
                Some(&SumAgg)
            } else {
                None
            }
        }
    }

    fn row_engine(workers: usize, fused: bool) -> PregelEngine<RowProg> {
        row_engine_with(PregelConfig::new(ClusterSpec::test_spec(workers)), fused)
    }

    /// 8 vertices as `(id, out-neighbours, feature row)`; several share
    /// in-neighbours across workers so fused merging actually folds
    /// multiple sender partials per slot.
    fn row_graph() -> Vec<(u64, Vec<u64>, Vec<f32>)> {
        let adj: Vec<(u64, Vec<u64>)> = vec![
            (0, vec![1, 2, 3]),
            (1, vec![2, 3]),
            (2, vec![3, 0]),
            (3, vec![0, 1, 2]),
            (4, vec![3, 2]),
            (5, vec![3]),
            (6, vec![2, 0]),
            (7, vec![0]),
        ];
        adj.into_iter()
            .map(|(id, nbrs)| {
                let feat = (0..DIM)
                    .map(|j| ((id as f32 + 1.0) * 0.37 + j as f32 * 0.11).sin())
                    .collect();
                (id, nbrs, feat)
            })
            .collect()
    }

    fn row_engine_with(cfg: PregelConfig, fused: bool) -> PregelEngine<RowProg> {
        let vertices = (row_graph().into_iter())
            .map(|(id, nbrs, feat)| {
                let (agg, count) = (Vec::new(), 0);
                let state = RowState {
                    feat,
                    nbrs,
                    agg,
                    count,
                };
                (id, state)
            })
            .collect();
        engine_of(RowProg { fused }, cfg, vertices)
    }

    fn agg_bits(eng: &PregelEngine<RowProg>) -> Vec<(u64, Vec<u32>, u32)> {
        let mut out = Vec::new();
        eng.for_each_state(|id, st| {
            out.push((id, st.agg.iter().map(|x| x.to_bits()).collect(), st.count));
        });
        out.sort_by_key(|&(id, _, _)| id);
        out
    }

    /// The fold-order contract written out serially, by hand, so it is
    /// pinned by something that is not the engine. Senders are visited per
    /// worker ascending, each worker's vertices in registration order, each
    /// vertex's rows in emission order. Materialized: every row folds
    /// straight into the destination, copy-on-first. Fused: each sender
    /// worker first folds its own rows into one partial per destination
    /// (copy-on-first), then the partials merge in the same ascending
    /// order, copy-on-first, one lane-wise fold per partial.
    fn oracle_agg_bits(workers: usize, fused: bool) -> Vec<(u64, Vec<u32>, u32)> {
        let graph = row_graph();
        let mut agg: Vec<(Vec<f32>, u32)> = vec![(Vec::new(), 0); graph.len()];
        for w in 0..workers {
            let mut partial: Vec<Vec<f32>> = vec![Vec::new(); graph.len()];
            for (id, nbrs, feat) in &graph {
                if partition_of(*id, workers) != w {
                    continue;
                }
                for &nb in nbrs {
                    let (acc, count) = &mut agg[nb as usize];
                    *count += 1;
                    if fused {
                        fold_row(&mut partial[nb as usize], feat);
                    } else {
                        fold_row(acc, feat);
                    }
                }
            }
            for (dst, p) in partial.iter().enumerate() {
                if !p.is_empty() {
                    fold_row(&mut agg[dst].0, p);
                }
            }
        }
        graph
            .iter()
            .map(|(id, _, _)| {
                let (acc, count) = &agg[*id as usize];
                (*id, acc.iter().map(|x| x.to_bits()).collect(), *count)
            })
            .collect()
    }

    #[test]
    fn fused_rows_bit_identical_to_the_serial_fold_order_oracle() {
        for workers in [1usize, 2, 3, 5] {
            let mut fused = row_engine(workers, true);
            fused.run(2).unwrap();
            assert_eq!(
                agg_bits(&fused),
                oracle_agg_bits(workers, true),
                "fused rows diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn materialized_rows_bit_identical_to_the_serial_fold_order_oracle() {
        for workers in [1usize, 2, 4] {
            let mut rows = row_engine(workers, false);
            rows.run(2).unwrap();
            assert_eq!(
                agg_bits(&rows),
                oracle_agg_bits(workers, false),
                "materialized rows diverged at {workers} workers"
            );
        }
    }

    /// Every vertex but 0 sends two tagged typed messages to vertex 0;
    /// vertex 0 records what it is handed, in order.
    struct TypedOrder;

    impl VertexProgram for TypedOrder {
        type State = Vec<f32>;
        type Msg = f32;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            state: &mut Vec<f32>,
            inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            if step == 0 && vertex != 0 {
                out.send(0, (vertex * 10) as f32);
                out.send(0, (vertex * 10 + 1) as f32);
            } else if step == 1 {
                *state = inbox.messages.iter().copied().collect();
            }
            Ok(())
        }
    }

    #[test]
    fn typed_messages_arrive_in_sender_worker_then_emission_order() {
        for workers in [1usize, 2, 5] {
            let cfg = PregelConfig::new(ClusterSpec::test_spec(workers));
            let vertices = (0..12u64).map(|id| (id, Vec::new())).collect();
            let mut eng = engine_of(TypedOrder, cfg, vertices);
            eng.run(2).unwrap();
            let mut want = Vec::new();
            for w in 0..workers {
                for id in (1..12u64).filter(|&id| partition_of(id, workers) == w) {
                    want.extend([(id * 10) as f32, (id * 10 + 1) as f32]);
                }
            }
            assert_eq!(eng.state(0).unwrap(), &want, "{workers} workers");
        }
    }

    /// Step 0 mixes both typed sends with a row send in one compute; step 1
    /// records what arrived. `by_route: false` spells each `scatter` out
    /// as one `send` per edge — the same traffic, addressed by id.
    struct Interleaved {
        by_route: bool,
    }

    #[derive(Clone)]
    struct Mixed {
        edges: Vec<Route>,
        targets: Vec<u64>,
        typed: Vec<f32>,
        rows: Vec<f32>,
    }

    /// Message `k` of vertex `v`'s step-0 compute.
    fn tag(v: u64, k: u64) -> f32 {
        (v * 10 + k) as f32
    }

    impl VertexProgram for Interleaved {
        type State = Mixed;
        type Msg = f32;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            state: &mut Mixed,
            inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            if step == 1 {
                state.typed = inbox.messages.iter().copied().collect();
                if let RowsIn::Rows(rows) = inbox.rows {
                    state.rows = rows.to_vec();
                }
                return Ok(());
            }
            let (Some(&first), Some(&last)) = (state.targets.first(), state.targets.last()) else {
                return Ok(());
            };
            out.send(first, tag(vertex, 0));
            if self.by_route {
                out.scatter(&state.edges, tag(vertex, 1));
            } else {
                for &t in &state.targets {
                    out.send(t, tag(vertex, 1));
                }
            }
            out.send_row(first, &[tag(vertex, 2)]);
            out.send(last, tag(vertex, 3));
            Ok(())
        }

        fn message_layout(&self, step: usize) -> Option<MessageLayout> {
            (step == 0).then_some(MessageLayout { dim: 1 })
        }
    }

    /// 12 vertices; every fourth has no out-edges, the rest four each
    /// (repeats and self-edges included).
    fn interleaved_adjacency() -> Vec<Vec<u64>> {
        (0..12u64)
            .map(|v| match v % 4 {
                3 => Vec::new(),
                _ => vec![(v + 1) % 12, (v * 5 + 3) % 12, (v + 7) % 12, 0],
            })
            .collect()
    }

    fn interleaved_engine(workers: usize, by_route: bool) -> PregelEngine<Interleaved> {
        let adj = interleaved_adjacency();
        let ids = adj.iter().enumerate().map(|(v, t)| (v as u64, &t[..]));
        let layout = Layout::planned(workers, ids).unwrap();
        let states: Vec<Mixed> = layout
            .vertices()
            .map(|v| Mixed {
                edges: v.edges.to_vec(),
                targets: adj[v.position].clone(),
                typed: Vec::new(),
                rows: Vec::new(),
            })
            .collect();
        let cfg = PregelConfig::new(ClusterSpec::test_spec(workers));
        let program = Interleaved { by_route };
        PregelEngine::with_layout(program, cfg, Arc::new(layout), states).unwrap()
    }

    #[test]
    fn typed_scatter_by_route_keeps_call_order_and_the_bytes_of_sends_by_id() {
        let adj = interleaved_adjacency();
        for workers in [1usize, 2, 3] {
            let mut by_route = interleaved_engine(workers, true);
            by_route.run(2).unwrap();
            let mut by_id = interleaved_engine(workers, false);
            by_id.run(2).unwrap();

            // The serial oracle: senders by worker ascending, slot order
            // within a worker, each compute's sends in call order.
            let (mut typed, mut rows) = (vec![Vec::new(); 12], vec![Vec::new(); 12]);
            for w in 0..workers {
                for &v in by_route.layout.ids(w) {
                    let targets = &adj[v as usize];
                    let (Some(&first), Some(&last)) = (targets.first(), targets.last()) else {
                        continue;
                    };
                    typed[first as usize].push(tag(v, 0));
                    for &t in targets {
                        typed[t as usize].push(tag(v, 1));
                    }
                    rows[first as usize].push(tag(v, 2));
                    typed[last as usize].push(tag(v, 3));
                }
            }
            for eng in [&by_route, &by_id] {
                for v in 0..12u64 {
                    let st = eng.state(v).unwrap();
                    assert_eq!(st.typed, typed[v as usize], "{workers} workers, vertex {v}");
                    assert_eq!(st.rows, rows[v as usize], "{workers} workers, vertex {v}");
                }
            }

            let (a, b) = (by_route.report(), by_id.report());
            assert!(a.message_bytes.legacy > 0);
            assert_eq!(a.message_bytes, b.message_bytes, "{workers} workers");
            let records_out = |r: &RunReport| -> Vec<(u64, u64)> {
                let totals = r.worker_totals().into_iter();
                totals.map(|t| (t.records_out, t.bytes_out)).collect()
            };
            assert_eq!(records_out(a), records_out(b), "{workers} workers");
        }
    }

    /// Records how long the worker's spare row was when each compute
    /// began, then grows it by one lane.
    struct SpareProbe;

    impl VertexProgram for SpareProbe {
        type State = Vec<usize>;
        type Msg = f32;

        fn compute(
            &self,
            _step: usize,
            _vertex: u64,
            seen: &mut Vec<usize>,
            _inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            seen.push(out.spare_row().len());
            out.spare_row().push(0.0);
            Ok(())
        }
    }

    #[test]
    fn the_spare_row_outlives_computes_supersteps_and_a_pooled_run() {
        let engine = || {
            let cfg = PregelConfig::new(ClusterSpec::test_spec(1));
            engine_of(
                SpareProbe,
                cfg,
                (0..4u64).map(|id| (id, Vec::new())).collect(),
            )
        };
        let mut eng = engine();
        eng.run(2).unwrap();
        // One worker, four vertices in slot order, two supersteps: nothing
        // between two computes touched the row.
        let mut seen: Vec<usize> = Vec::new();
        eng.for_each_state(|_, s| seen.extend(s));
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        // It rides the scratch pool into the next run.
        let pool = eng.take_scratch();
        let mut eng = engine();
        eng.set_scratch(pool);
        eng.run(1).unwrap();
        let mut seen: Vec<usize> = Vec::new();
        eng.for_each_state(|_, s| seen.extend(s));
        seen.sort_unstable();
        assert_eq!(seen, (8..12).collect::<Vec<_>>());
    }

    /// GAT's emission pattern on the materialized plane: every step each
    /// vertex scatters one row — its state plus the first lane of what it
    /// was lent — over all its out-edges.
    struct FanOut;

    const FAN_DIM: usize = 8;

    impl VertexProgram for FanOut {
        type State = (Vec<Route>, Vec<f32>);
        type Msg = f32;

        fn compute(
            &self,
            _step: usize,
            _vertex: u64,
            (edges, row): &mut (Vec<Route>, Vec<f32>),
            inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            if let RowsIn::Rows(rows) = inbox.rows {
                for (i, lent) in rows.iter().enumerate() {
                    row[i % FAN_DIM] += lent[0];
                }
            }
            out.scatter_row(edges, row);
            Ok(())
        }

        fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
            Some(MessageLayout { dim: FAN_DIM })
        }
    }

    /// 16 vertices with 5 out-edges each (one of them repeated).
    fn fan_out_engine(workers: usize, cfg: PregelConfig) -> PregelEngine<FanOut> {
        let adj: Vec<Vec<u64>> = (0..16u64)
            .map(|v| {
                vec![
                    (v + 1) % 16,
                    (v + 3) % 16,
                    (v * 5 + 2) % 16,
                    (v + 1) % 16,
                    0,
                ]
            })
            .collect();
        let ids = adj.iter().enumerate().map(|(v, t)| (v as u64, &t[..]));
        let layout = Layout::planned(workers, ids).unwrap();
        let states: Vec<_> = layout
            .vertices()
            .map(|v| {
                let row = (0..FAN_DIM).map(|j| (v.id * 8 + j as u64) as f32).collect();
                (v.edges.to_vec(), row)
            })
            .collect();
        PregelEngine::with_layout(FanOut, cfg, Arc::new(layout), states).unwrap()
    }

    /// The row tables the engine's sealed inboxes lend from, deduplicated.
    fn inbox_tables<P: VertexProgram>(eng: &PregelEngine<P>) -> Vec<RowTable> {
        inbox_tables_of(&eng.inbox_cols)
    }

    fn inbox_tables_of(cols: &[MergedCols]) -> Vec<RowTable> {
        let mut tables: Vec<RowTable> = Vec::new();
        for c in cols {
            if let MergedCols::Rows(a) = c {
                for t in a.tables() {
                    if !tables.iter().any(|seen| Arc::ptr_eq(seen, t)) {
                        tables.push(Arc::clone(t));
                    }
                }
            }
        }
        tables
    }

    #[test]
    fn a_sealed_fan_out_holds_one_row_per_span_and_is_charged_one_per_edge() {
        for workers in [1usize, 3, 4] {
            let mut eng =
                fan_out_engine(workers, PregelConfig::new(ClusterSpec::test_spec(workers)));
            eng.run(1).unwrap();
            let (spans, edges) = (16u64, 16 * 5u64);
            let row_bytes = FAN_DIM as u64 * 4;
            let tables: u64 = inbox_tables(&eng)
                .iter()
                .map(|t| t.data().len() as u64 * 4)
                .sum();
            let (mut held, mut charged, mut rows) = (0, 0, 0);
            for (w2, c) in eng.inbox_cols.iter().enumerate() {
                let MergedCols::Rows(a) = c else {
                    panic!("materialized rows were sent");
                };
                held += a.held_bytes();
                rows += a.n_rows() as u64;
                let offsets = (eng.layout.n_slots(w2) as u64 + 1) * 4;
                assert_eq!(a.resident_bytes(), a.n_rows() as u64 * row_bytes + offsets);
                charged += a.resident_bytes() - offsets;
            }
            assert_eq!(rows, edges, "{workers} workers");
            assert_eq!(tables, spans * row_bytes, "{workers} workers");
            assert!(
                tables + held <= spans * row_bytes + 8 * rows,
                "{workers} workers: {tables} + {held} B held"
            );
            assert_eq!(charged, edges * row_bytes, "{workers} workers");
            // The charge is what the worker's memory check saw.
            let peak: u64 = eng
                .report()
                .worker_totals()
                .iter()
                .map(|t| t.mem_peak)
                .sum();
            assert!(peak >= charged, "{workers} workers: peak {peak}");
        }
    }

    #[test]
    fn a_row_table_a_checkpoint_holds_is_never_written_again() {
        let cfg = || PregelConfig::new(ClusterSpec::test_spec(3));
        let mut eng = fan_out_engine(3, cfg());
        eng.run(1).unwrap();
        let ckpt = eng.checkpoint();
        let held = inbox_tables_of(&ckpt.inbox_cols);
        let lanes: Vec<Vec<f32>> = held.iter().map(|t| t.data().to_vec()).collect();
        assert!(!held.is_empty());
        for _ in 0..3 {
            eng.run(1).unwrap();
            for t in inbox_tables(&eng) {
                assert!(
                    !held.iter().any(|h| Arc::ptr_eq(h, &t)),
                    "a table the checkpoint holds was handed to an emit"
                );
            }
        }
        let still: Vec<Vec<f32>> = held.iter().map(|t| t.data().to_vec()).collect();
        assert_eq!(still, lanes, "the checkpoint's rows must not move");
        // The checkpoint's, the inbox's and a free generation: no more.
        assert_eq!(
            eng.scratch.tables.iter().map(Vec::len).sum::<usize>(),
            3 * 3
        );
        // Once the checkpoint lets go, its tables are the pool's again.
        let freed: Vec<*const RowBlock> = held.iter().map(Arc::as_ptr).collect();
        drop((ckpt, held));
        eng.run(1).unwrap();
        let lent: Vec<*const RowBlock> = inbox_tables(&eng).iter().map(Arc::as_ptr).collect();
        assert_eq!(lent, freed, "the freed generation is written next");
        assert_eq!(
            eng.scratch.tables.iter().map(Vec::len).sum::<usize>(),
            3 * 3
        );

        // Replaying from a checkpoint over shared tables is bit-identical.
        let mut plain = fan_out_engine(3, cfg());
        plain.run(4).unwrap();
        let mut replayed = fan_out_engine(3, cfg());
        replayed.run(1).unwrap();
        let ckpt = replayed.checkpoint();
        replayed.run(2).unwrap();
        replayed.restore(&ckpt);
        replayed.run(3).unwrap();
        let rows = |e: &PregelEngine<FanOut>| {
            let mut out = Vec::new();
            e.for_each_state(|id, (_, row)| {
                out.push((id, row.iter().map(|x| x.to_bits()).collect::<Vec<_>>()))
            });
            out
        };
        assert_eq!(rows(&replayed), rows(&plain));
    }

    #[test]
    fn seal_is_a_stable_sort_by_slot_of_the_sender_ascending_concatenation() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        for _ in 0..300 {
            // Slots drawn from a prefix of the table leave the rest empty;
            // a third of the senders send nothing. A message goes to one
            // to three routes, each a reference to its one stored copy.
            let n_slots = 1 + rng.below(12) as usize;
            let used = 1 + rng.below(n_slots as u64);
            let mut tag = 0u32;
            let (mut tables, mut refs) = (Vec::new(), Vec::new());
            for _ in 0..rng.below(6) {
                let (mut table, mut sent) = (Vec::new(), Vec::new());
                for _ in 0..rng.below(3) * rng.below(15) {
                    tag += 1;
                    for _ in 0..1 + rng.below(3) {
                        sent.push((rng.below(used) as u32, table.len() as u32));
                    }
                    table.push(tag);
                }
                tables.push(table);
                refs.push(sent);
            }
            let mut want: Vec<(u32, u32)> = refs
                .iter()
                .zip(&tables)
                .flat_map(|(sent, table)| sent.iter().map(|&(s, at)| (s, table[at as usize])))
                .collect();
            want.sort_by_key(|&(slot, _)| slot);
            let lent = |inbox: &TypedInbox<u32>| -> Vec<(u32, u32)> {
                (0..n_slots)
                    .flat_map(|s| {
                        inbox
                            .slot(s)
                            .iter()
                            .map(move |&m| (s as u32, m))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let inbox = TypedInbox::seal(n_slots, refs.iter(), tables.into()).unwrap();
            assert_eq!(lent(&inbox), want);
            // What a byte-moving transport hands back — one table, already
            // in delivery order, one reference per record — lends the same.
            let one: Refs = want
                .iter()
                .enumerate()
                .map(|(i, &(s, _))| (s, i as u32))
                .collect();
            let table: Vec<u32> = want.iter().map(|&(_, m)| m).collect();
            let merged = TypedInbox::seal(n_slots, [&one].into_iter(), Arc::new([table])).unwrap();
            assert_eq!(lent(&merged), want);
            assert_eq!(merged.offsets, inbox.offsets);
        }
    }

    #[test]
    fn fused_rows_shrink_columnar_message_bytes() {
        let mut fused = row_engine(3, true);
        fused.run(2).unwrap();
        let mut rows = row_engine(3, false);
        rows.run(2).unwrap();
        let fb = fused.report().message_bytes;
        let rb = rows.report().message_bytes;
        assert!(fb.columnar > 0 && rb.columnar > 0);
        assert!(
            fb.columnar < rb.columnar,
            "fusion must shrink columnar traffic: {} vs {}",
            fb.columnar,
            rb.columnar
        );
        // The typed plane stays idle for a pure-row program.
        assert_eq!(fb.legacy, 0);
    }

    #[test]
    fn spilled_columnar_inboxes_bit_identical_and_reported() {
        // A 16-byte budget forces every columnar inbox (fused accumulators
        // and materialized arenas alike) through the disk path; results
        // and message accounting must not move a bit, while the memory
        // model shifts inbox bytes from the resident to the spilled plane.
        let spill = SpillPolicy::new(std::env::temp_dir().join("inferturbo-engine-tests"), 16);
        for fused in [true, false] {
            let mut plain = row_engine(3, fused);
            plain.run(2).unwrap();
            let cfg = PregelConfig::new(ClusterSpec::test_spec(3)).with_spill(Some(spill.clone()));
            let mut spilling = row_engine_with(cfg, fused);
            spilling.run(2).unwrap();
            assert_eq!(
                agg_bits(&plain),
                agg_bits(&spilling),
                "spilling changed results (fused={fused})"
            );
            assert_eq!(
                plain.report().message_bytes,
                spilling.report().message_bytes,
                "spilling is not message traffic (fused={fused})"
            );
            assert_eq!(plain.report().spilled_bytes, 0);
            assert!(
                spilling.report().spilled_bytes > 0,
                "budget of 16 B must force a spill (fused={fused})"
            );
            assert!(
                spilling.report().max_mem_peak() < plain.report().max_mem_peak(),
                "spilling must shrink the resident peak (fused={fused})"
            );
        }
    }

    /// Relay chain on the columnar plane: each vertex forwards the row it
    /// received, so vertex `k` learns `k` at superstep `k`, and once the
    /// chain ends the later supersteps leave every state as it was.
    struct Relay;

    #[derive(Default, Clone)]
    struct RelayState {
        got: Option<f32>,
        next: Option<u64>,
    }

    impl VertexProgram for Relay {
        type State = RelayState;
        type Msg = f32;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            state: &mut RelayState,
            inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            let incoming = match inbox.rows {
                RowsIn::Rows(rows) if !rows.is_empty() => Some(rows.row(0)[0]),
                _ => None,
            };
            if step == 0 && vertex == 0 {
                state.got = Some(0.0);
                if let Some(next) = state.next {
                    out.send_row(next, &[1.0]);
                }
            } else if let Some(v) = incoming {
                state.got = Some(v);
                if let Some(next) = state.next {
                    out.send_row(next, &[v + 1.0]);
                }
            }
            Ok(())
        }

        fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
            Some(MessageLayout { dim: 1 })
        }
    }

    #[test]
    fn columnar_rows_relay_along_a_chain() {
        let cfg = PregelConfig::new(ClusterSpec::test_spec(3));
        let vertices = (0..5u64)
            .map(|id| {
                let next = (id + 1 < 5).then_some(id + 1);
                (id, RelayState { got: None, next })
            })
            .collect();
        let mut eng = engine_of(Relay, cfg, vertices);
        eng.run(8).unwrap();
        assert_eq!(eng.steps_run(), 8);
        for id in 0..5u64 {
            assert_eq!(eng.state(id).unwrap().got, Some(id as f32), "vertex {id}");
        }
    }

    // ---- fault injection & checkpoint recovery ------------------------------

    use inferturbo_cluster::{FaultPlan, FaultSite, RecoveryPolicy};

    #[test]
    fn injected_worker_failure_recovers_bit_identical() {
        for fused in [true, false] {
            for workers in [2usize, 3] {
                let plain_cfg = PregelConfig::new(ClusterSpec::test_spec(workers));
                let mut plain = row_engine_with(plain_cfg, fused);
                plain.run(2).unwrap();
                let plan =
                    FaultPlan::new().and_fail(FaultSite::WorkerCompute { worker: 1, step: 1 });
                let cfg = PregelConfig::new(ClusterSpec::test_spec(workers))
                    .with_fault_injector(Some(plan.injector()))
                    .with_recovery(Some(RecoveryPolicy::new(1, 3)));
                let mut faulty = row_engine_with(cfg, fused);
                faulty.run(2).unwrap();
                assert_eq!(
                    agg_bits(&plain),
                    agg_bits(&faulty),
                    "recovery changed results (fused={fused}, workers={workers})"
                );
                assert_eq!(
                    plain.report().message_bytes,
                    faulty.report().message_bytes,
                    "replay double-counted traffic (fused={fused}, workers={workers})"
                );
                assert_eq!(plain.report().total_bytes(), faulty.report().total_bytes());
                let r = faulty.report();
                assert_eq!(r.retries, 1);
                assert!(r.checkpoints >= 1);
                assert_eq!(r.recovered_supersteps, 1, "ckpt at 1, failed at 1");
                assert_eq!(plain.report().retries, 0);
            }
        }
    }

    #[test]
    fn seal_and_spill_faults_recover_bit_identical() {
        let spill = SpillPolicy::new(
            std::env::temp_dir().join("inferturbo-engine-fault-tests"),
            16,
        );
        for fused in [true, false] {
            let plain_cfg =
                PregelConfig::new(ClusterSpec::test_spec(3)).with_spill(Some(spill.clone()));
            let mut plain = row_engine_with(plain_cfg, fused);
            plain.run(2).unwrap();
            let plan = FaultPlan::new()
                .and_fail(FaultSite::SealBarrier { worker: 2, step: 0 })
                .and_fail(FaultSite::SpillWrite { worker: 0, step: 1 })
                .and_fail(FaultSite::SpillRead { worker: 1, step: 1 });
            let cfg = PregelConfig::new(ClusterSpec::test_spec(3))
                .with_spill(Some(spill.clone()))
                .with_fault_injector(Some(plan.injector()))
                .with_recovery(Some(RecoveryPolicy::new(1, 3)));
            let mut faulty = row_engine_with(cfg, fused);
            faulty.run(2).unwrap();
            assert_eq!(
                agg_bits(&plain),
                agg_bits(&faulty),
                "recovery changed spilled results (fused={fused})"
            );
            assert_eq!(plain.report().message_bytes, faulty.report().message_bytes);
            assert!(faulty.report().spilled_bytes > 0);
            assert_eq!(
                faulty.report().retries,
                3,
                "each scheduled fault fired once"
            );
        }
    }

    #[test]
    fn retry_exhaustion_surfaces_the_original_error() {
        let plan =
            FaultPlan::new().and_fail_times(FaultSite::WorkerCompute { worker: 1, step: 1 }, 10);
        let cfg = PregelConfig::new(ClusterSpec::test_spec(3))
            .with_fault_injector(Some(plan.injector()))
            .with_recovery(Some(RecoveryPolicy::new(1, 2)));
        let mut eng = row_engine_with(cfg, false);
        let err = eng.run(2).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(err.to_string().contains("superstep 1"), "{err}");
        assert_eq!(
            eng.report().retries,
            2,
            "both retries spent before surfacing"
        );

        // Without a recovery policy the first firing surfaces unchanged.
        let cfg = PregelConfig::new(ClusterSpec::test_spec(3))
            .with_fault_injector(Some(plan.injector()))
            .with_recovery(None);
        let mut eng = row_engine_with(cfg, false);
        let err = eng.run(2).unwrap_err();
        assert!(err.to_string().contains("superstep 1"), "{err}");
        assert_eq!(eng.report().retries, 0);
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let spec = ClusterSpec::test_spec(1).with_memory(8);
        let cfg = PregelConfig::new(spec).with_recovery(Some(RecoveryPolicy::default()));
        let mut eng = pagerank_engine_with(cfg);
        let err = eng.run(3).unwrap_err();
        assert!(err.is_oom());
        assert!(!err.is_transient());
        assert_eq!(eng.report().retries, 0, "OOM must not burn retries");
    }

    /// Scatters, on the steps it sends at all, a row naming itself and the
    /// step over all its out-edges (vertex 0 sends a decoy row first), and
    /// fails the superstep unless the engine lends it back exactly the
    /// last row it sent on the materialized plane one step earlier. Step 2
    /// folds its rows and step 4 declares none: nothing is lent after
    /// either.
    struct Echo;

    #[derive(Clone)]
    struct EchoState {
        edges: Vec<Route>,
        /// The row the engine must lend next step; empty for none.
        sent: Vec<f32>,
        lent: usize,
    }

    impl VertexProgram for Echo {
        type State = EchoState;
        type Msg = f32;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            state: &mut EchoState,
            inbox: Inbox<'_, f32>,
            out: &mut Outbox<f32>,
        ) -> Result<()> {
            if inbox.own_row != state.sent.as_slice() {
                return Err(Error::Internal(format!(
                    "vertex {vertex} at step {step} was lent {:?} after sending {:?}",
                    inbox.own_row, state.sent
                )));
            }
            state.lent += usize::from(!inbox.own_row.is_empty());
            state.sent.clear();
            if self.message_layout(step).is_none() || (vertex + step as u64).is_multiple_of(3) {
                return Ok(());
            }
            let row = [vertex as f32, step as f32, (vertex * 31) as f32 + 0.5];
            if vertex == 0 {
                out.scatter_row(&state.edges, &[-1.0; 3]);
            }
            out.scatter_row(&state.edges, &row);
            if self.fused_aggregator(step).is_none() && !state.edges.is_empty() {
                state.sent.extend_from_slice(&row);
            }
            Ok(())
        }

        fn message_layout(&self, step: usize) -> Option<MessageLayout> {
            (step != 4).then_some(MessageLayout { dim: 3 })
        }

        fn fused_aggregator(&self, step: usize) -> Option<&dyn FusedAggregator> {
            (step == 2).then_some(&SumAgg)
        }
    }

    /// 12 vertices over 3 workers, two out-edges each but vertex 5's.
    fn echo_engine(cfg: PregelConfig) -> PregelEngine<Echo> {
        let adj: Vec<Vec<u64>> = (0..12u64)
            .map(|v| match v {
                5 => vec![],
                _ => vec![(v + 1) % 12, (v * 7 + 3) % 12],
            })
            .collect();
        let ids = adj.iter().enumerate().map(|(v, t)| (v as u64, &t[..]));
        let layout = Layout::planned(3, ids).unwrap();
        let states: Vec<_> = layout
            .vertices()
            .map(|v| EchoState {
                edges: v.edges.to_vec(),
                sent: Vec::new(),
                lent: 0,
            })
            .collect();
        PregelEngine::with_layout(Echo, cfg, Arc::new(layout), states).unwrap()
    }

    #[test]
    fn a_vertex_is_lent_the_row_it_sent_in_process_spilled_and_replayed() {
        let spill = SpillPolicy::new(std::env::temp_dir().join("inferturbo-engine-echo"), 16);
        let faults = || {
            FaultPlan::new()
                .and_fail(FaultSite::SealBarrier { worker: 0, step: 1 })
                .and_fail(FaultSite::WorkerCompute { worker: 1, step: 3 })
                .injector()
        };
        let spec = ClusterSpec::test_spec(3);
        let configs = [
            ("in process", PregelConfig::new(spec), 0),
            (
                "spilled",
                PregelConfig::new(spec).with_spill(Some(spill)),
                0,
            ),
            (
                "replayed",
                PregelConfig::new(spec)
                    .with_fault_injector(Some(faults()))
                    .with_recovery(Some(RecoveryPolicy::new(1, 3))),
                2,
            ),
        ];
        let mut lent = Vec::new();
        for (name, cfg, retries) in configs {
            let mut eng = echo_engine(cfg);
            eng.run(7).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(eng.report().retries, retries, "{name}");
            if name == "spilled" {
                assert!(eng.report().spilled_bytes > 0, "{name}: nothing spilled");
            }
            let mut of_run = Vec::new();
            eng.for_each_state(|id, s| of_run.push((id, s.lent)));
            lent.push(of_run);
        }
        // Steps 1, 2, 4 and 6 lend to the row senders of the step before:
        // about two thirds of the 11 vertices with edges each time.
        let total: usize = lent[0].iter().map(|(_, n)| n).sum();
        assert!(total > 12, "only {total} rows lent");
        assert_eq!(lent[1], lent[0], "spilled");
        assert_eq!(lent[2], lent[0], "replayed");
    }

    #[test]
    fn checkpoint_cadence_is_reported() {
        let spec = ClusterSpec::test_spec(2);
        let cfg = PregelConfig::new(spec).with_recovery(Some(RecoveryPolicy::new(2, 1)));
        let mut eng = pagerank_engine_with(cfg);
        eng.run(4).unwrap();
        // Due at steps 0 and 2; steps 1 and 3 are covered by the previous
        // checkpoint.
        assert_eq!(eng.report().checkpoints, 2);
        assert_eq!(eng.report().retries, 0);
    }

    /// Vertices `bad` fail their step-1 kernel with `err`.
    struct Failing {
        bad: [u64; 2],
        err: Error,
    }

    impl VertexProgram for Failing {
        type State = ();
        type Msg = f32;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            _state: &mut (),
            _inbox: Inbox<'_, f32>,
            _out: &mut Outbox<f32>,
        ) -> Result<()> {
            if step == 1 && self.bad.contains(&vertex) {
                return Err(self.err.clone());
            }
            Ok(())
        }
    }

    #[test]
    fn a_failing_kernel_fails_the_run_and_is_retried_only_if_transient() {
        let workers = 4;
        let on = |w| {
            (0..16u64)
                .find(|&id| partition_of(id, workers) == w)
                .unwrap()
        };
        // Two kernels fail in the same superstep: the lower worker's error
        // is the run's, whichever thread got there first.
        let (first, second) = (on(1), on(3));
        let errors = [
            (Error::InvalidGraph("dangling ref".into()), 0),
            (Error::Io("flaky disk".into()), 2),
        ];
        for (err, retries) in errors {
            for threads in [1usize, 2, 4] {
                let cfg = PregelConfig::new(ClusterSpec::test_spec(workers))
                    .with_recovery(Some(RecoveryPolicy::new(1, 2)));
                let program = Failing {
                    bad: [second, first],
                    err: err.clone(),
                };
                let vertices = (0..16u64).map(|id| (id, ())).collect();
                let mut eng = engine_of(program, cfg, vertices);
                let got = Parallelism::with(threads, || eng.run(2)).unwrap_err();
                let want = err.clone().in_phase(format!("superstep-1, vertex {first}"));
                assert_eq!(got, want, "{threads} threads");
                assert_eq!(eng.report().retries, retries, "{err} at {threads} threads");
            }
        }
    }

    #[test]
    fn send_row_without_layout_is_a_typed_config_error() {
        struct NoLayout;
        impl VertexProgram for NoLayout {
            type State = ();
            type Msg = f32;
            fn compute(
                &self,
                _s: usize,
                _v: u64,
                _state: &mut (),
                _inbox: Inbox<'_, f32>,
                out: &mut Outbox<f32>,
            ) -> Result<()> {
                // No layout declared for this step: must become a typed
                // error, not a panic.
                out.send_row(3, &[1.0, 2.0]);
                Ok(())
            }
        }
        let cfg = PregelConfig::new(ClusterSpec::test_spec(1));
        let mut eng = engine_of(NoLayout, cfg, vec![(3, ())]);
        let err = eng.run(1).unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "want InvalidConfig, got {err}"
        );
        assert!(err.to_string().contains("message layout"), "{err}");
        assert!(!err.is_transient(), "program bugs must never be retried");
    }

    #[test]
    fn send_row_width_mismatch_is_a_typed_config_error() {
        struct WrongWidth;
        impl VertexProgram for WrongWidth {
            type State = ();
            type Msg = f32;
            fn compute(
                &self,
                _s: usize,
                _v: u64,
                _state: &mut (),
                _inbox: Inbox<'_, f32>,
                out: &mut Outbox<f32>,
            ) -> Result<()> {
                out.send_row(4, &[1.0, 2.0, 3.0]);
                Ok(())
            }
            fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
                Some(MessageLayout { dim: 2 })
            }
        }
        let cfg = PregelConfig::new(ClusterSpec::test_spec(1));
        let mut eng = engine_of(WrongWidth, cfg, vec![(4, ())]);
        let err = eng.run(1).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("3 lanes"), "{err}");
    }
}
