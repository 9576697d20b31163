//! The BSP superstep loop: routing, fused aggregation, broadcast tables,
//! metrics.
//!
//! # Execution model
//!
//! An engine runs over a [`PregelLayout`]: the slot table of every worker,
//! the one `id → (worker, slot)` index, and — when the layout was planned
//! from a graph — each vertex's out-edges as pre-resolved
//! [`Route`](crate::Route)s. The layout is shared (`Arc`) and never
//! written during a run; the engine
//! itself owns only what a run changes: one state per slot, the sealed
//! inboxes, the broadcast table and the report.
//! [`PregelEngine::with_layout`] builds that from a layout somebody else
//! keeps (a session plan: lay the graph out once, run many times) and
//! allocates exactly one exact-sized state vector per worker — no id is
//! hashed and no vector grows. [`PregelEngine::new`] +
//! [`PregelEngine::add_vertex`] grow a private layout one vertex at a time
//! for programs that carry their own adjacency.
//!
//! Each superstep is a real fork-join: every logical worker computes on its
//! own OS thread (up to the global [`inferturbo_common::Parallelism`]
//! budget), writing its outgoing messages into per-(sender × destination)
//! **outbox shards**. Rows leave a vertex as (row, span of routes) pairs
//! in the [`Outbox`] spool; the worker's one routing loop walks each span
//! and copies (or, fused, folds) the row into the shard its route names —
//! no lookup per edge, the row written to the spool once per vertex. Byte
//! accounting for rows happens once per worker after its last vertex, from
//! the shards' own slot lists and the layout's slot tables. At the barrier
//! the shards are merged without locks, in ascending sender order — the
//! exact order a serial sender loop would deliver in — so results, byte
//! accounting, and metrics are identical for every thread count.
//!
//! What a run allocates: the per-worker state vectors, the inboxes sealed
//! at each barrier, and — first run only, pooled in a [`ScratchPool`]
//! afterwards — the outbox spools and shards.
//!
//! # Message planes
//!
//! Two planes carry traffic between supersteps, and a program may use both
//! in the same step:
//!
//! - the **typed plane**: `P::Msg` values sent with
//!   [`Outbox::send`](crate::vertex::Outbox::send) — variable-width
//!   payloads such as broadcast refs and control messages, addressed by
//!   vertex id (one index lookup per message) — land in a flat per-worker
//!   arena (`InboxArena`: one `Vec<Msg>` plus per-slot offsets) rebuilt
//!   each superstep with a counting scatter;
//! - the **columnar plane**: when the program declares a
//!   [`MessageLayout`](crate::vertex::MessageLayout) for the emitting
//!   step, fixed-width `f32` rows move through flat per-(sender ×
//!   destination) buffers — no `Vec<f32>` per message, no `Msg` enum on
//!   the hot path — and are sealed into a per-worker
//!   [`inferturbo_common::rows::RowArena`] with a counting
//!   scatter of `memcpy`s. If the step also provides a
//!   [`FusedAggregator`], **gather is
//!   fused into scatter**: senders fold rows into per-destination
//!   accumulator rows as they emit, and the barrier merges one partial
//!   row per (sender, destination slot) into a dense O(V·d) accumulator
//!   set — peak inbox memory and shuffle volume drop from O(E·d) to
//!   O(V·d), the paper's partial-aggregation optimisation done at the
//!   engine level. This is the engine's one sender-side combiner.
//!
//! # Determinism contract
//!
//! Parallel execution is observably identical to serial for every thread
//! count, and delivery order is fixed on both planes. Typed messages —
//! broadcast refs included — and materialized (non-fused) rows are
//! delivered to a vertex in (sender worker ascending, emission order
//! within a sender), with no exception. Fused rows fold a sender's rows
//! per destination in emission order (copy-on-first, so the first row is
//! taken verbatim), and the barrier merges per-destination partials in
//! ascending sender order with one lane-wise fold per partial.
//! A program folding its row slice front-to-back therefore sees exactly
//! the serial per-message fold, and a fused accumulator equals that fold
//! regrouped per sender worker — bit for bit, at every thread count, over
//! every transport, spilled or resident, recovered or clean.

use crate::layout::PregelLayout;
use crate::vertex::{ActivationPolicy, Outbox, RowMisuse, RowsIn, VertexProgram};
use inferturbo_cluster::transport::{
    frame::EncodedRecords, ColsShards, DestShards, Exchange, InProcess, MergedCols, Transport,
};
use inferturbo_cluster::{
    ClusterSpec, FaultInjector, FaultPlan, MessagePlaneBytes, RecoveryPolicy, RunReport,
    WorkerPhase,
};
use inferturbo_common::codec::{varint_len, Decode, Encode};
use inferturbo_common::par::par_map;
use inferturbo_common::rows::{
    row_payload_len, AggKind, FusedAggregator, FusedRows, FusedSlotShard, RowArena, RowShard,
    SpillPolicy,
};
use inferturbo_common::{Error, FxHashMap, Result};
use inferturbo_obs::{Payload, Site, TraceHandle, TraceMark};
use std::sync::Arc;

/// Engine configuration. Every knob is an explicit field: a fresh
/// [`PregelConfig::new`] is fault-free, recovery-free, untraced and
/// in-process, and only a `with_*` call changes that — the engine reads
/// no ambient configuration.
#[derive(Debug, Clone)]
pub struct PregelConfig {
    pub spec: ClusterSpec,
    pub activation: ActivationPolicy,
    /// Out-of-core policy for the columnar inter-superstep inboxes. When
    /// set, each worker's sealed [`RowArena`] / merged [`FusedRows`] whose
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
            activation: ActivationPolicy::AlwaysActive,
            spill: None,
            faults: None,
            recovery: None,
            trace: TraceHandle::disabled(),
            transport: Arc::new(InProcess),
        }
    }

    pub fn with_activation(mut self, a: ActivationPolicy) -> Self {
        self.activation = a;
        self
    }

    /// Set (or clear) the out-of-core spill policy for the columnar
    /// inboxes. See [`PregelConfig::spill`].
    pub fn with_spill(mut self, spill: Option<SpillPolicy>) -> Self {
        self.spill = spill;
        self
    }

    /// Arm (or clear) a deterministic fault schedule for this engine. The
    /// plan is armed once: its per-site fire budgets are shared by every clone
    /// of this config, so a replayed superstep does not re-fire a fault
    /// that already fired.
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan.filter(|p| !p.is_empty()).map(|p| p.injector());
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

/// One worker's reusable superstep scratch: the outbox (message spools,
/// row buffers), the per-destination fused accumulator shards with their
/// dense slot indexes, and the per-destination materialized row shards of
/// the non-fused columnar plane. Threaded through the fork-join by value —
/// each worker task owns its scratch exclusively — and reclaimed at the
/// barrier, so buffer capacity survives across supersteps.
pub(crate) struct WorkerScratch<M> {
    /// `None` until the worker's first superstep (an outbox is bound to a
    /// layout) and while the worker's compute holds it.
    pub(crate) outbox: Option<Outbox<M>>,
    pub(crate) fused: Vec<FusedSlotShard>,
    pub(crate) rows: Vec<RowShard>,
}

impl<M> Default for WorkerScratch<M> {
    fn default() -> Self {
        WorkerScratch {
            outbox: None,
            fused: Vec::new(),
            rows: Vec::new(),
        }
    }
}

/// Pooled per-worker engine scratch (one `WorkerScratch` per logical
/// worker). Every engine owns one — supersteps within a run reuse it
/// instead of reallocating — and a caller that runs repeated inference
/// over the same graph (a planned session) can [`PregelEngine::take_scratch`]
/// it after a run and [`PregelEngine::set_scratch`] it into the next
/// engine, so the O(W·V) fused slot indexes, the materialized row shards,
/// and the outbox spools are allocated once per plan, not once per
/// superstep.
///
/// Pooling is observably invisible: a reset shard/outbox is
/// indistinguishable from a fresh one (sparse index clear through the
/// touched keys), so results, byte accounting and metrics are identical
/// with or without a carried-over pool.
pub struct ScratchPool<M> {
    workers: Vec<WorkerScratch<M>>,
}

impl<M> Default for ScratchPool<M> {
    fn default() -> Self {
        ScratchPool::new()
    }
}

impl<M> ScratchPool<M> {
    /// An empty pool; it grows to the engine's worker count on first use.
    pub fn new() -> Self {
        ScratchPool {
            workers: Vec::new(),
        }
    }
}

/// Flat per-worker inbox: every pending message in one arena, slot `s`'s
/// messages at `msgs[offsets[s]..offsets[s+1]]` in delivery order. Sealed
/// once per superstep with a counting scatter — no per-message `Vec`
/// growth, one allocation per worker per superstep.
#[derive(Clone)]
struct InboxArena<M> {
    msgs: Vec<M>,
    /// Per-slot ranges; empty until the first seal (= "no messages yet").
    offsets: Vec<u32>,
}

impl<M> InboxArena<M> {
    fn new() -> Self {
        InboxArena {
            msgs: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Messages pending for `slot`. Slots past the sealed range — vertices
    /// added after the last superstep — have no messages yet.
    fn count(offsets: &[u32], slot: usize) -> usize {
        if slot + 1 >= offsets.len() {
            0
        } else {
            (offsets[slot + 1] - offsets[slot]) as usize
        }
    }

    /// Build the arena from per-sender shards of `(slot, msg)` pairs.
    /// Shards are scattered in ascending sender order and each shard in
    /// emission order, reproducing exactly the delivery order of a serial
    /// sender loop.
    fn seal(n_slots: usize, shards: Vec<Vec<(u32, M)>>) -> Self {
        // The u32 cursors below feed an unsafe set_len: wraparound must be
        // a clean panic, never a short count.
        let total: usize = shards.iter().map(Vec::len).sum();
        assert!(
            total <= u32::MAX as usize,
            "inbox arena overflow: {total} messages for one worker"
        );
        let mut offsets = vec![0u32; n_slots + 1];
        for sh in &shards {
            for &(s, _) in sh.iter() {
                offsets[s as usize + 1] += 1;
            }
        }
        for i in 0..n_slots {
            offsets[i + 1] += offsets[i];
        }
        debug_assert_eq!(offsets[n_slots] as usize, total);
        let mut msgs: Vec<std::mem::MaybeUninit<M>> = Vec::with_capacity(total);
        // SAFETY: MaybeUninit needs no initialisation, and the counting
        // scatter below writes every index in 0..total exactly once (the
        // offsets were derived from these very shards).
        unsafe { msgs.set_len(total) };
        // `offsets` doubles as the scatter cursor; afterwards offsets[s]
        // holds end-of-s, which the right shift turns back into start-of-s
        // without a second allocation.
        for sh in shards {
            for (s, m) in sh {
                let at = offsets[s as usize] as usize;
                msgs[at].write(m);
                offsets[s as usize] += 1;
            }
        }
        offsets.copy_within(0..n_slots, 1);
        offsets[0] = 0;
        // SAFETY: all `total` elements are initialised; MaybeUninit<M> has
        // the same layout as M.
        let msgs = unsafe {
            let mut msgs = std::mem::ManuallyDrop::new(msgs);
            Vec::from_raw_parts(msgs.as_mut_ptr() as *mut M, msgs.len(), msgs.capacity())
        };
        InboxArena { msgs, offsets }
    }

    /// Build the arena from records a byte-moving transport already merged
    /// into slot-major delivery order ((sender ascending, emission order)
    /// within a slot) — the same order [`InboxArena::seal`] produces, so
    /// the messages land verbatim and only the offsets need counting.
    fn from_merged(n_slots: usize, records: Vec<(u32, M)>) -> Self {
        let total = records.len();
        assert!(
            total <= u32::MAX as usize,
            "inbox arena overflow: {total} messages for one worker"
        );
        let mut offsets = vec![0u32; n_slots + 1];
        for &(s, _) in &records {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n_slots {
            offsets[i + 1] += offsets[i];
        }
        debug_assert!(records.windows(2).all(|w| w[0].0 <= w[1].0));
        let msgs = records.into_iter().map(|(_, m)| m).collect();
        InboxArena { msgs, offsets }
    }
}

/// Which plane carried the rows now sitting in the engine's inbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InPlane {
    Legacy,
    Rows,
    Fused,
}

/// A consistent snapshot of everything a superstep reads: vertex states,
/// both inbox planes, the broadcast table, and the full [`RunReport`].
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
    inbox: Vec<InboxArena<P::Msg>>,
    row_inbox: Vec<RowArena>,
    fused_inbox: Vec<FusedRows>,
    in_plane: InPlane,
    inbox_bytes: Vec<u64>,
    bcast: FxHashMap<u64, P::Msg>,
    report: RunReport,
    /// Trace position at snapshot time: restore rewinds the sink here so
    /// replayed supersteps re-emit into a truncated trace (bit-identical
    /// to never having failed).
    trace_mark: TraceMark,
}

/// The columnar half of one worker's inbox for the next superstep.
enum InboxCols {
    None,
    Rows(RowArena),
    Fused(FusedRows),
}

/// How messages emitted this superstep are routed.
#[derive(Clone, Copy)]
enum EmitPlane<'a> {
    Legacy,
    Rows {
        dim: usize,
    },
    Fused {
        dim: usize,
        agg: &'a dyn FusedAggregator,
    },
}

impl EmitPlane<'_> {
    fn row_dim(&self) -> Option<usize> {
        match self {
            EmitPlane::Legacy => None,
            EmitPlane::Rows { dim } | EmitPlane::Fused { dim, .. } => Some(*dim),
        }
    }
}

/// Per-sender legacy shards: `shards[dest] = (slot, msg)` pairs.
type LegacyShards<M> = Vec<Vec<(u32, M)>>;

/// One worker's columnar outbox shards, matching the step's emit plane.
enum ColsOut {
    None,
    Rows(Vec<RowShard>),
    Fused(Vec<FusedSlotShard>),
}

/// The emit plane chosen for a superstep fixes which shard plane every
/// outbox carries; a mismatch is engine corruption surfaced as a typed
/// internal error rather than an abort.
fn plane_mismatch(step: usize) -> Error {
    Error::Internal(format!(
        "superstep-{step}: emit plane does not match the shard plane"
    ))
}

/// Wire length of a materialized columnar row to `dst`: the shared
/// [`row_payload_len`] framing plus the destination varint.
fn row_wire_len(dim: usize, dst: u64) -> u64 {
    (row_payload_len(dim, None) + varint_len(dst)) as u64
}

/// Wire length of a fused partial row (carries its fold count).
fn fused_row_wire_len(dim: usize, count: u32, dst: u64) -> u64 {
    (row_payload_len(dim, Some(count)) + varint_len(dst)) as u64
}

/// Everything one worker's compute produces in a superstep, merged at the
/// barrier in ascending worker order.
struct StepOut<M> {
    /// Sender-side accounting (sends, flops) for this worker.
    metrics: WorkerPhase,
    /// Receiver-side byte/record deltas this sender caused, per destination.
    recv_bytes: Vec<u64>,
    recv_records: Vec<u64>,
    /// Next-superstep legacy-inbox residency this sender caused, per
    /// destination (columnar residency is computed from the sealed arenas
    /// at the barrier).
    inbox_bytes: Vec<u64>,
    /// Legacy outbox shards: `(destination slot, message)` per destination
    /// worker.
    shards: Vec<Vec<(u32, M)>>,
    /// Columnar outbox shards (rows or fused accumulators).
    cols: ColsOut,
    /// Broadcast payloads published this superstep.
    bcasts: Vec<(u64, M)>,
    /// Message volume by plane (local + remote).
    msg_bytes: MessagePlaneBytes,
    any_active: bool,
    /// The worker's scratch, handed back to the engine pool at the
    /// barrier. When the emit plane is fused, its `fused` shards are
    /// travelling through `cols` instead and are reclaimed after the
    /// destination merge.
    scratch: WorkerScratch<M>,
}

impl<M> StepOut<M> {
    fn new(
        n_workers: usize,
        emit: &EmitPlane<'_>,
        dest_sizes: &[usize],
        mut scratch: WorkerScratch<M>,
    ) -> Self {
        let cols = match emit {
            EmitPlane::Legacy => ColsOut::None,
            EmitPlane::Rows { dim } => {
                // Reuse pooled shards: a reset shard is indistinguishable
                // from a fresh one but keeps its slot/row allocations, so
                // steady-state materialized scatter allocates nothing.
                let mut shards = std::mem::take(&mut scratch.rows);
                shards.truncate(n_workers);
                shards.resize_with(n_workers, || RowShard::new(*dim));
                for sh in shards.iter_mut() {
                    sh.reset(*dim);
                }
                ColsOut::Rows(shards)
            }
            EmitPlane::Fused { dim, .. } => {
                // Reuse pooled shards: reset is indistinguishable from
                // fresh construction but clears the dense slot index
                // sparsely instead of refilling O(dest_size) per shard.
                let mut shards = std::mem::take(&mut scratch.fused);
                shards.truncate(n_workers);
                shards.resize_with(n_workers, || FusedSlotShard::new(*dim, 0));
                for (w2, sh) in shards.iter_mut().enumerate() {
                    sh.reset(*dim, dest_sizes[w2]);
                }
                ColsOut::Fused(shards)
            }
        };
        StepOut {
            metrics: WorkerPhase::default(),
            recv_bytes: vec![0; n_workers],
            recv_records: vec![0; n_workers],
            inbox_bytes: vec![0; n_workers],
            shards: (0..n_workers).map(|_| Vec::new()).collect(),
            cols,
            bcasts: Vec::new(),
            msg_bytes: MessagePlaneBytes::default(),
            any_active: false,
            scratch,
        }
    }
}

/// The Pregel engine. Construct over a layout (or add vertices one by
/// one), `run` supersteps, read back states and the [`RunReport`].
pub struct PregelEngine<P: VertexProgram> {
    program: P,
    config: PregelConfig,
    /// Where every vertex lives and where its planned out-edges lead;
    /// shared, read-only while the engine runs.
    layout: Arc<PregelLayout>,
    /// Per worker: one state per slot, in the layout's slot order.
    workers: Vec<Vec<P::State>>,
    /// Per worker: pending legacy messages for the *next* compute.
    inbox: Vec<InboxArena<P::Msg>>,
    /// Per worker: pending columnar rows (when `in_plane == Rows`).
    row_inbox: Vec<RowArena>,
    /// Per worker: merged fused accumulators (when `in_plane == Fused`).
    fused_inbox: Vec<FusedRows>,
    in_plane: InPlane,
    inbox_bytes: Vec<u64>,
    /// Broadcast table published last superstep (identical replica on every
    /// worker in a real deployment; stored once here).
    bcast: FxHashMap<u64, P::Msg>,
    report: RunReport,
    step: usize,
    /// Per-worker reusable superstep scratch (outboxes, fused shards).
    scratch: ScratchPool<P::Msg>,
}

impl<P: VertexProgram> PregelEngine<P> {
    /// An engine with no vertices yet, over a private layout that
    /// [`PregelEngine::add_vertex`] grows.
    pub fn new(program: P, config: PregelConfig) -> Self {
        let n = config.spec.workers;
        assert!(n > 0, "cluster must have at least one worker");
        let workers = (0..n).map(|_| Vec::new()).collect();
        Self::over(program, config, Arc::new(PregelLayout::new(n)), workers)
    }

    /// An engine over a layout built ahead of time. `states` yields one
    /// state per vertex in the layout's engine order
    /// ([`PregelLayout::vertices`]: worker ascending, slot ascending).
    /// Construction moves each state into its worker's exact-sized vector
    /// and does nothing else — the layout is shared, not copied, and no id
    /// is hashed.
    pub fn with_layout(
        program: P,
        config: PregelConfig,
        layout: Arc<PregelLayout>,
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
        Ok(Self::over(program, config, layout, workers))
    }

    fn over(
        program: P,
        config: PregelConfig,
        layout: Arc<PregelLayout>,
        workers: Vec<Vec<P::State>>,
    ) -> Self {
        let n = config.spec.workers;
        PregelEngine {
            program,
            report: RunReport::new(config.spec),
            layout,
            workers,
            inbox: (0..n).map(|_| InboxArena::new()).collect(),
            row_inbox: Vec::new(),
            fused_inbox: Vec::new(),
            in_plane: InPlane::Legacy,
            inbox_bytes: vec![0; n],
            bcast: FxHashMap::default(),
            config,
            step: 0,
            scratch: ScratchPool::new(),
        }
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

    /// Register a vertex with no planned out-edges (its program addresses
    /// messages by id). Ids must be unique: a duplicate is a typed
    /// [`Error::InvalidGraph`] and leaves the engine unchanged. If the
    /// layout is shared, the engine continues on a private copy.
    pub fn add_vertex(&mut self, id: u64, state: P::State) -> Result<()> {
        let layout = Arc::make_mut(&mut self.layout);
        let route = layout.add_vertex(id)?;
        let (w, _) = layout.unpack(route);
        self.workers[w].push(state);
        Ok(())
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

    /// Run up to `supersteps` supersteps; under
    /// [`ActivationPolicy::MessageDriven`] the loop exits early once no
    /// vertex is active and no messages are in flight.
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
            row_inbox: self.row_inbox.iter().map(RowArena::snapshot).collect(),
            fused_inbox: self.fused_inbox.iter().map(FusedRows::snapshot).collect(),
            in_plane: self.in_plane,
            inbox_bytes: self.inbox_bytes.clone(),
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
        let retries = self.report.retries;
        let checkpoints = self.report.checkpoints;
        let recovered = self.report.recovered_supersteps;
        self.step = ckpt.step;
        self.workers = ckpt.workers.clone();
        self.inbox = ckpt.inbox.clone();
        self.row_inbox = ckpt.row_inbox.iter().map(RowArena::snapshot).collect();
        self.fused_inbox = ckpt.fused_inbox.iter().map(FusedRows::snapshot).collect();
        self.in_plane = ckpt.in_plane;
        self.inbox_bytes = ckpt.inbox_bytes.clone();
        self.bcast = ckpt.bcast.clone();
        self.report = ckpt.report.clone();
        self.report.retries = retries;
        self.report.checkpoints = checkpoints;
        self.report.recovered_supersteps = recovered;
        self.config.trace.rewind(ckpt.trace_mark);
    }

    /// Execute one superstep. Returns whether any vertex ran.
    ///
    /// Compute runs fork-join across workers; the barrier merges outbox
    /// shards (both planes), broadcast tables, and metric deltas in
    /// ascending worker order, making the result independent of the thread
    /// budget.
    fn superstep(&mut self) -> Result<bool>
    where
        P: Sync,
        P::State: Send,
        P::Msg: Send + Sync,
    {
        let n_workers = self.config.spec.workers;
        let step = self.step;
        let phase_name = format!("superstep-{step}");

        // Resolve this step's emit plane from the program's declarations.
        let emit: EmitPlane<'_> = match self.program.message_layout(step) {
            None => EmitPlane::Legacy,
            Some(layout) => match self.program.fused_aggregator(step) {
                Some(agg) => EmitPlane::Fused {
                    dim: layout.dim,
                    agg,
                },
                None => EmitPlane::Rows { dim: layout.dim },
            },
        };
        let dest_sizes: Vec<usize> = (0..n_workers).map(|w| self.layout.n_slots(w)).collect();

        let inboxes = std::mem::replace(
            &mut self.inbox,
            (0..n_workers).map(|_| InboxArena::new()).collect(),
        );
        let col_inboxes: Vec<InboxCols> = match self.in_plane {
            InPlane::Legacy => (0..n_workers).map(|_| InboxCols::None).collect(),
            InPlane::Rows => std::mem::take(&mut self.row_inbox)
                .into_iter()
                .map(InboxCols::Rows)
                .collect(),
            InPlane::Fused => std::mem::take(&mut self.fused_inbox)
                .into_iter()
                .map(InboxCols::Fused)
                .collect(),
        };
        let mut scratches = std::mem::take(&mut self.scratch.workers);
        scratches.truncate(n_workers);
        scratches.resize_with(n_workers, WorkerScratch::default);
        let program = &self.program;
        let config = &self.config;
        let layout = &self.layout;
        let bcast = &self.bcast;
        let dest_sizes_ref = &dest_sizes;
        let tasks: Vec<_> = self
            .workers
            .iter_mut()
            .zip(inboxes)
            .zip(col_inboxes)
            .zip(scratches)
            .collect();
        let results: Vec<Result<StepOut<P::Msg>>> =
            par_map(tasks, |w, (((states, arena), cols_in), scratch)| {
                run_worker(
                    program,
                    config,
                    layout,
                    bcast,
                    step,
                    n_workers,
                    w,
                    dest_sizes_ref,
                    emit,
                    states,
                    arena,
                    cols_in,
                    scratch,
                )
            });
        // Surface failures in ascending worker order, like the serial loop.
        let mut outs: Vec<StepOut<P::Msg>> = Vec::with_capacity(n_workers);
        for r in results {
            outs.push(r?);
        }

        // ---- barrier: lock-free merges, all in ascending sender order ----
        let mut metrics: Vec<WorkerPhase> = outs.iter().map(|o| o.metrics.clone()).collect();
        let mut next_inbox_bytes = vec![0u64; n_workers];
        let mut next_bcast: FxHashMap<u64, P::Msg> = FxHashMap::default();
        let mut any_active = false;
        let mut step_msg_bytes = MessagePlaneBytes::default();
        for o in &mut outs {
            for w2 in 0..n_workers {
                metrics[w2].bytes_in += o.recv_bytes[w2];
                metrics[w2].records_in += o.recv_records[w2];
                next_inbox_bytes[w2] += o.inbox_bytes[w2];
            }
            any_active |= o.any_active;
            step_msg_bytes.add(o.msg_bytes);
            self.report.message_bytes.add(o.msg_bytes);
            for (id, payload) in o.bcasts.drain(..) {
                next_bcast.insert(id, payload);
            }
        }
        // Transpose shards to destination-major and seal each destination's
        // arenas — both planes — in parallel (destinations are independent).
        let mut legacy_by_sender: Vec<LegacyShards<P::Msg>> = Vec::with_capacity(n_workers);
        let mut cols_by_sender: Vec<ColsOut> = Vec::with_capacity(n_workers);
        let mut scratches: Vec<WorkerScratch<P::Msg>> = Vec::with_capacity(n_workers);
        for o in outs {
            legacy_by_sender.push(o.shards);
            cols_by_sender.push(o.cols);
            scratches.push(o.scratch);
        }
        let seal_tasks: Vec<_> = (0..n_workers)
            .map(|w2| {
                let legacy: Vec<Vec<(u32, P::Msg)>> = legacy_by_sender
                    .iter_mut()
                    .map(|s| std::mem::take(&mut s[w2]))
                    .collect();
                let cols = match emit {
                    EmitPlane::Legacy => ColsOut::None,
                    EmitPlane::Rows { dim } => ColsOut::Rows(
                        cols_by_sender
                            .iter_mut()
                            .map(|c| match c {
                                ColsOut::Rows(v) => {
                                    Ok(std::mem::replace(&mut v[w2], RowShard::new(dim)))
                                }
                                _ => Err(plane_mismatch(step)),
                            })
                            .collect::<Result<Vec<RowShard>>>()?,
                    ),
                    EmitPlane::Fused { dim, .. } => ColsOut::Fused(
                        cols_by_sender
                            .iter_mut()
                            .map(|c| match c {
                                ColsOut::Fused(v) => {
                                    Ok(std::mem::replace(&mut v[w2], FusedSlotShard::new(dim, 0)))
                                }
                                _ => Err(plane_mismatch(step)),
                            })
                            .collect::<Result<Vec<FusedSlotShard>>>()?,
                    ),
                };
                Ok((dest_sizes[w2], legacy, cols))
            })
            .collect::<Result<Vec<_>>>()?;
        let spill = self.config.spill.as_ref();
        let faults = self.config.faults.as_ref();
        let transport = std::sync::Arc::clone(&self.config.transport);
        // A byte-moving backend carries the typed legacy plane as encoded
        // records; the in-process backend leaves it typed and the engine
        // seals it itself after the exchange.
        let needs_bytes = transport.needs_bytes();
        let mut encoded_legacy: Vec<Option<Vec<EncodedRecords>>> = if needs_bytes {
            seal_tasks
                .iter()
                .map(|(_, legacy, _)| {
                    Some(
                        legacy
                            .iter()
                            .map(|sender| sender.iter().map(|(s, m)| (*s, m.to_bytes())).collect())
                            .collect(),
                    )
                })
                .collect()
        } else {
            (0..n_workers).map(|_| None).collect()
        };
        // Hand every destination's shards — columnar borrowed, legacy
        // encoded when the backend moves bytes — to the transport, which
        // fires the SealBarrier/SpillWrite fault sites per destination and
        // merges in ascending sender order (see the transport contract).
        let mut xfer_shards = 0u64;
        let mut xfer_rows = 0u64;
        let mut xfer_legacy = 0u64;
        let mut dests = Vec::with_capacity(n_workers);
        for (w2, (n_slots, legacy, cols)) in seal_tasks.iter().enumerate() {
            xfer_legacy += legacy.iter().map(|s| s.len() as u64).sum::<u64>();
            let cols_ref = match (cols, emit) {
                (ColsOut::None, EmitPlane::Legacy) => ColsShards::None,
                (ColsOut::Rows(shards), EmitPlane::Rows { dim }) => {
                    xfer_shards += shards.len() as u64;
                    xfer_rows += shards.iter().map(|s| s.len() as u64).sum::<u64>();
                    ColsShards::Rows { dim, shards }
                }
                (ColsOut::Fused(shards), EmitPlane::Fused { dim, agg }) => {
                    xfer_shards += shards.len() as u64;
                    xfer_rows += shards.iter().map(|s| s.len() as u64).sum::<u64>();
                    ColsShards::Fused { dim, agg, shards }
                }
                _ => return Err(plane_mismatch(step)),
            };
            dests.push(DestShards {
                n_slots: *n_slots,
                cols: cols_ref,
                legacy: encoded_legacy[w2].take(),
            });
        }
        let exchanged = transport
            .exchange(Exchange {
                step,
                faults,
                spill,
                dests,
            })
            .map_err(|e| e.in_phase(format!("seal superstep-{step}")))?;
        self.report.wire_bytes += exchanged.wire_bytes;
        // Build next-superstep inboxes from the merged planes: decode what
        // came back over the wire, or seal the typed legacy shards the
        // in-process exchange left untouched. Destinations stay
        // independent, so this runs fork-join like the merge itself.
        let merge_tasks: Vec<_> = seal_tasks.into_iter().zip(exchanged.dests).collect();
        let sealed: Vec<Result<_>> = par_map(
            merge_tasks,
            |_w2, ((n_slots, legacy, reclaimed), merged)| {
                let arena = if needs_bytes {
                    let records = merged.legacy.unwrap_or_default();
                    let mut typed: Vec<(u32, P::Msg)> = Vec::with_capacity(records.len());
                    for (s, bytes) in records {
                        let m = P::Msg::from_bytes(&bytes)
                            .map_err(|e| e.in_phase(format!("seal superstep-{step}")))?;
                        typed.push((s, m));
                    }
                    InboxArena::from_merged(n_slots, typed)
                } else {
                    InboxArena::seal(n_slots, legacy)
                };
                let (cols_in, resident, spilled) = match merged.cols {
                    MergedCols::None => (InboxCols::None, 0, 0),
                    MergedCols::Rows(a) => {
                        let (r, s) = (a.resident_bytes(), a.spilled_bytes());
                        (InboxCols::Rows(a), r, s)
                    }
                    MergedCols::Fused(f) => {
                        let (r, s) = (f.resident_bytes(), f.spilled_bytes());
                        (InboxCols::Fused(f), r, s)
                    }
                };
                Ok((arena, cols_in, resident, spilled, reclaimed))
            },
        );
        // Surface seal failures in ascending destination order, like the
        // compute errors above.
        let mut sealed_ok = Vec::with_capacity(n_workers);
        for r in sealed {
            sealed_ok.push(r?);
        }

        let mut next_inbox = Vec::with_capacity(n_workers);
        let mut next_rows = Vec::new();
        let mut next_fused = Vec::new();
        let mut step_spilled = 0u64;
        for (w2, (arena, cols, resident, spilled, reclaimed)) in sealed_ok.into_iter().enumerate() {
            next_inbox_bytes[w2] += resident;
            step_spilled += spilled;
            self.report.spilled_bytes += spilled;
            next_inbox.push(arena);
            match cols {
                InboxCols::None => {}
                InboxCols::Rows(a) => next_rows.push(a),
                InboxCols::Fused(f) => next_fused.push(f),
            }
            // Hand the sealed/merged columnar shards back to their senders'
            // pools (reclaimed[s] is sender s's shard for destination w2) so
            // the next superstep resets them instead of reallocating.
            match reclaimed {
                ColsOut::None => {}
                ColsOut::Rows(shards) => {
                    for (s, shard) in shards.into_iter().enumerate() {
                        scratches[s].rows.push(shard);
                    }
                }
                ColsOut::Fused(shards) => {
                    for (s, shard) in shards.into_iter().enumerate() {
                        scratches[s].fused.push(shard);
                    }
                }
            }
        }
        self.scratch.workers = scratches;

        // Memory model: resident = vertex states + incoming message buffers
        // (legacy arena bytes + columnar arena/accumulator bytes).
        for w in 0..n_workers {
            let state_bytes: u64 = self.workers[w]
                .iter()
                .map(|state| self.program.state_bytes(state))
                .sum();
            let resident = state_bytes + next_inbox_bytes[w];
            metrics[w].touch_mem(resident);
            self.config
                .spec
                .check_memory(w, resident)
                .map_err(|e| e.in_phase(&phase_name))?;
        }

        self.inbox = next_inbox;
        self.row_inbox = next_rows;
        self.fused_inbox = next_fused;
        self.in_plane = match emit {
            EmitPlane::Legacy => InPlane::Legacy,
            EmitPlane::Rows { .. } => InPlane::Rows,
            EmitPlane::Fused { .. } => InPlane::Fused,
        };
        self.inbox_bytes = next_inbox_bytes;
        self.bcast = next_bcast;
        // Flight recorder: emit at the barrier only, after every check
        // passed — a failed superstep leaves no partial records (and a
        // replayed one re-emits identical ones). Single-threaded here, in
        // ascending worker order, so the trace is thread-count invariant.
        if self.config.trace.enabled() {
            let step64 = step as u64;
            let mut rows_sealed = 0u64;
            for (w, m) in metrics.iter().enumerate() {
                rows_sealed += m.records_in;
                self.config.trace.emit(
                    step64,
                    Site::Worker(w as u32),
                    Payload::WorkerPhase {
                        phase: phase_name.clone(),
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
            self.config.trace.emit(
                step64,
                Site::Engine,
                Payload::Transport {
                    phase: phase_name.clone(),
                    dests: n_workers as u64,
                    shards: xfer_shards,
                    rows: xfer_rows,
                    legacy_records: xfer_legacy,
                },
            );
            self.config.trace.emit(
                step64,
                Site::Engine,
                Payload::Superstep {
                    phase: phase_name.clone(),
                    active: any_active,
                    rows_sealed,
                    columnar_bytes: step_msg_bytes.columnar,
                    legacy_bytes: step_msg_bytes.legacy,
                    spilled_bytes: step_spilled,
                },
            );
        }
        self.report.push_phase(phase_name, metrics);
        self.step += 1;
        Ok(any_active)
    }
}

/// Where one worker's spooled rows go this superstep: the emit plane
/// matched against the worker's shard plane **once**, and — fused — the
/// fold resolved once, so the per-edge loop below carries neither.
enum RowSink<'a> {
    /// No row plane this step (a row sent anyway was already refused by
    /// the outbox).
    None,
    Rows {
        dim: usize,
        shards: &'a mut [RowShard],
    },
    Fused {
        dim: usize,
        shards: &'a mut [FusedSlotShard],
        agg: &'a dyn FusedAggregator,
        /// `agg`'s closed-form fold, when it names one
        /// ([`FusedAggregator::wire_kind`] — bit-identical by that
        /// method's contract): folds through it compile to a plain loop
        /// instead of a virtual call per edge.
        kind: Option<AggKind>,
    },
}

impl<'a> RowSink<'a> {
    fn resolve(emit: EmitPlane<'a>, cols: &'a mut ColsOut, step: usize) -> Result<Self> {
        match (emit, cols) {
            (EmitPlane::Legacy, ColsOut::None) => Ok(RowSink::None),
            (EmitPlane::Rows { dim }, ColsOut::Rows(shards)) => Ok(RowSink::Rows { dim, shards }),
            (EmitPlane::Fused { dim, agg }, ColsOut::Fused(shards)) => Ok(RowSink::Fused {
                dim,
                shards,
                agg,
                kind: agg.wire_kind(),
            }),
            _ => Err(plane_mismatch(step)),
        }
    }

    /// The engine's one routing loop: walk the spool front to back, each
    /// row to every route of its span — a flat copy into the destination
    /// worker's row shard, or a lane-wise fold into its accumulator shard
    /// (copy-on-first). Per (sender worker, destination) that is emission
    /// order, which is the whole fold-order contract on the sender side.
    fn route<M>(&mut self, layout: &PregelLayout, ob: &Outbox<M>) {
        match self {
            RowSink::None => debug_assert!(ob.span_ends.is_empty()),
            RowSink::Rows { dim, shards } => ob.for_each_span(*dim, |row, routes| {
                for &r in routes {
                    let (w2, slot) = layout.unpack(r);
                    shards[w2].push(slot, row);
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
}

/// The fused arm of [`RowSink::route`], generic over the fold so a
/// closed-form [`AggKind`] inlines into the per-edge loop.
fn fold_spans<M>(
    layout: &PregelLayout,
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
/// per-destination shards — typed messages into legacy shards, fixed-width
/// rows into columnar row shards or fused accumulators. Runs on its own
/// thread; touches nothing shared mutably.
#[allow(clippy::too_many_arguments)]
fn run_worker<P: VertexProgram>(
    program: &P,
    config: &PregelConfig,
    layout: &Arc<PregelLayout>,
    bcast: &FxHashMap<u64, P::Msg>,
    step: usize,
    n_workers: usize,
    w: usize,
    dest_sizes: &[usize],
    emit: EmitPlane<'_>,
    states: &mut [P::State],
    arena: InboxArena<P::Msg>,
    mut cols_in: InboxCols,
    scratch: WorkerScratch<P::Msg>,
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
    let mut out = StepOut::new(n_workers, &emit, dest_sizes, scratch);
    let InboxArena { msgs, offsets } = arena;
    let mut msg_iter = msgs.into_iter();
    // One pooled outbox reused across every vertex (and, via the scratch
    // pool, across supersteps and runs): cleared between computes,
    // capacity retained, so steady-state sends allocate nothing.
    let mut ob = out
        .scratch
        .outbox
        .take()
        .unwrap_or_else(|| Outbox::new(Arc::clone(layout)));
    ob.reset(layout, emit.row_dim());
    let mut cols = std::mem::replace(&mut out.cols, ColsOut::None);
    let mut sink = RowSink::resolve(emit, &mut cols, step)?;

    for (s, (state, &vertex_id)) in states.iter_mut().zip(layout.ids(w)).enumerate() {
        let cnt = InboxArena::<P::Msg>::count(&offsets, s);
        let col_cnt = match &cols_in {
            InboxCols::None => 0,
            InboxCols::Rows(a) => a.count(s),
            InboxCols::Fused(f) => f.count(s) as usize,
        };
        let active = match config.activation {
            ActivationPolicy::AlwaysActive => true,
            ActivationPolicy::MessageDriven => step == 0 || cnt > 0 || col_cnt > 0,
        };
        if !active {
            // cnt == 0 whenever a vertex is inactive, so the arena iterator
            // stays aligned with the slot offsets.
            continue;
        }
        out.any_active = true;
        let messages: Vec<P::Msg> = msg_iter.by_ref().take(cnt).collect();
        // `&mut`: a spilled inbox pages its covering window in here. Slots
        // drain in ascending order, so the window streams the spill file
        // forward exactly once per superstep.
        let rows_in = match &mut cols_in {
            InboxCols::None => RowsIn::None,
            InboxCols::Rows(a) => {
                let dim = a.dim();
                RowsIn::Rows {
                    dim,
                    data: a.rows(s)?,
                }
            }
            InboxCols::Fused(f) => {
                let dim = f.dim();
                let count = f.count(s);
                RowsIn::Fused {
                    dim,
                    acc: f.row(s)?,
                    count,
                }
            }
        };
        ob.clear();
        {
            let lookup = |src: u64| bcast.get(&src);
            program.compute_columnar(step, vertex_id, state, rows_in, messages, &lookup, &mut ob);
        }
        out.metrics.flops += ob.flops;
        match ob.misuse.take() {
            None => {}
            Some(RowMisuse::Layout(msg)) => {
                return Err(Error::InvalidConfig(format!("vertex {vertex_id}: {msg}")));
            }
            Some(RowMisuse::UnknownVertex(dst)) => return Err(unknown_vertex(dst)),
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

        // Route typed point-to-point messages, in emission order.
        for (dst, msg) in ob.messages.drain(..) {
            deliver::<P>(layout, w, dst, msg, &mut out)?;
        }

        sink.route(layout, &ob);
    }

    // Row accounting, once per worker: one record per row a shard holds —
    // a materialized row, or a fused partial (one per touched slot, in
    // first-touch order). The destination id every record is framed with
    // comes from the destination worker's slot table.
    if let Some(dim) = emit.row_dim() {
        for w2 in 0..n_workers {
            let ids = layout.ids(w2);
            let (records, bytes): (usize, u64) = match &cols {
                ColsOut::None => (0, 0),
                ColsOut::Rows(shards) => {
                    let slots = &shards[w2].slots;
                    let bytes = slots.iter().map(|&s| row_wire_len(dim, ids[s as usize]));
                    (slots.len(), bytes.sum())
                }
                ColsOut::Fused(shards) => {
                    let shard = &shards[w2];
                    let bytes = shard
                        .keys
                        .iter()
                        .zip(&shard.counts)
                        .map(|(&s, &count)| fused_row_wire_len(dim, count, ids[s as usize]));
                    (shard.keys.len(), bytes.sum())
                }
            };
            if w2 != w {
                out.metrics.bytes_out += bytes;
                out.metrics.records_out += records as u64;
                out.recv_bytes[w2] += bytes;
                out.recv_records[w2] += records as u64;
            }
            out.msg_bytes.columnar += bytes;
        }
    }
    out.cols = cols;
    out.scratch.outbox = Some(ob);
    Ok(out)
}

fn unknown_vertex(dst: u64) -> Error {
    Error::InvalidGraph(format!("message to unknown vertex {dst}"))
}

/// Route one typed message into the sender's outbox shard for its
/// destination worker, with full byte accounting on both sides.
fn deliver<P: VertexProgram>(
    layout: &PregelLayout,
    from_worker: usize,
    dst: u64,
    msg: P::Msg,
    out: &mut StepOut<P::Msg>,
) -> Result<()> {
    let (w2, slot) = layout.unpack(layout.resolve(dst).ok_or_else(|| unknown_vertex(dst))?);
    let wire_len = (msg.encoded_len() + varint_len(dst)) as u64;
    if w2 != from_worker {
        out.metrics.send(wire_len);
        out.recv_bytes[w2] += wire_len;
        out.recv_records[w2] += 1;
    }
    out.inbox_bytes[w2] += wire_len;
    out.msg_bytes.legacy += wire_len;
    out.shards[w2].push((slot, msg));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::{BroadcastLookup, MessageLayout};
    use inferturbo_common::hash::partition_of;

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
            messages: Vec<f32>,
            _bcast: &BroadcastLookup<'_, f32>,
            out: &mut Outbox<f32>,
        ) {
            if step > 0 {
                let sum: f64 = messages.iter().map(|&m| m as f64).sum();
                state.rank = (1.0 - self.damping) / self.n + self.damping * sum;
            }
            if !state.nbrs.is_empty() {
                let share = (state.rank / state.nbrs.len() as f64) as f32;
                for &nb in &state.nbrs {
                    out.send(nb, share);
                }
            }
            out.add_flops(messages.len() as f64 + 2.0);
        }
    }

    /// 4-node graph: 0->1, 0->2, 1->2, 2->0, 3->2 (3 is a source).
    fn pagerank_engine(workers: usize) -> PregelEngine<PageRank> {
        let spec = ClusterSpec::test_spec(workers);
        let cfg = PregelConfig::new(spec);
        let mut eng = PregelEngine::new(
            PageRank {
                n: 4.0,
                damping: 0.85,
            },
            cfg,
        );
        let adj: Vec<(u64, Vec<u64>)> =
            vec![(0, vec![1, 2]), (1, vec![2]), (2, vec![0]), (3, vec![2])];
        for (id, nbrs) in adj {
            eng.add_vertex(id, PrState { rank: 0.25, nbrs }).unwrap();
        }
        eng
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

    /// SSSP with message-driven halting.
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
            messages: Vec<f32>,
            _bcast: &BroadcastLookup<'_, f32>,
            out: &mut Outbox<f32>,
        ) {
            let incoming = messages.into_iter().fold(f32::INFINITY, f32::min);
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
        }
    }

    #[test]
    fn sssp_converges_and_halts_early() {
        let spec = ClusterSpec::test_spec(2);
        let cfg = PregelConfig::new(spec).with_activation(ActivationPolicy::MessageDriven);
        let mut eng = PregelEngine::new(Sssp, cfg);
        // 0 -1-> 1 -1-> 2 -1-> 3; plus shortcut 0 -10-> 3
        let adj: Vec<(u64, Vec<(u64, f32)>)> = vec![
            (0, vec![(1, 1.0), (3, 10.0)]),
            (1, vec![(2, 1.0)]),
            (2, vec![(3, 1.0)]),
            (3, vec![]),
        ];
        for (id, nbrs) in adj {
            eng.add_vertex(
                id,
                SsspState {
                    dist: f32::INFINITY,
                    nbrs,
                },
            )
            .unwrap();
        }
        eng.run(100).unwrap();
        assert!(eng.steps_run() < 100, "should halt early");
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
        let mut eng = PregelEngine::new(
            PageRank {
                n: 2.0,
                damping: 0.85,
            },
            cfg,
        );
        eng.add_vertex(
            0,
            PrState {
                rank: 0.5,
                nbrs: vec![1],
            },
        )
        .unwrap();
        eng.add_vertex(
            1,
            PrState {
                rank: 0.5,
                nbrs: vec![0],
            },
        )
        .unwrap();
        eng
    }

    #[test]
    fn duplicate_vertex_rejected() {
        let mut eng = pagerank_engine(2);
        let again = PrState {
            rank: 1.0,
            nbrs: vec![],
        };
        let err = eng.add_vertex(2, again).unwrap_err();
        assert!(matches!(err, Error::InvalidGraph(_)), "{err}");
        assert!(err.to_string().contains("duplicate vertex id 2"), "{err}");
        // The refused vertex left nothing behind: the first registration
        // still answers, and the engine runs as if never asked.
        assert_eq!(eng.n_vertices(), 4);
        assert_eq!(eng.state(2).unwrap().nbrs, vec![0]);
        eng.run(11).unwrap();
        let want = pagerank_reference(10);
        assert!((eng.state(2).unwrap().rank - want[2]).abs() < 1e-6);
    }

    #[test]
    fn vertices_added_between_runs_participate() {
        // The arena inbox is sized at seal time; vertices registered after
        // a superstep must still compute (with an empty inbox) next run.
        let mut eng = pagerank_engine(2);
        eng.run(1).unwrap();
        eng.add_vertex(
            99,
            PrState {
                rank: 0.25,
                nbrs: vec![2],
            },
        )
        .unwrap();
        eng.run(1).unwrap();
        assert_eq!(eng.n_vertices(), 5);
        // The new vertex must have *computed* at the second run: with an
        // empty inbox its rank becomes exactly (1-d)/n, not its initial
        // 0.25.
        assert_eq!(eng.state(99).unwrap().rank, (1.0 - 0.85) / 4.0);
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
                _m: Vec<f32>,
                _b: &BroadcastLookup<'_, f32>,
                out: &mut Outbox<f32>,
            ) {
                out.send(999, 1.0);
            }
        }
        let mut eng = PregelEngine::new(Bad, PregelConfig::new(ClusterSpec::test_spec(1)));
        eng.add_vertex(0, ()).unwrap();
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
                _m: Vec<f32>,
                bcast: &BroadcastLookup<'_, f32>,
                out: &mut Outbox<f32>,
            ) {
                if step == 0 && vertex == 7 {
                    out.broadcast(42.5);
                }
                if step == 1 {
                    state.seen = bcast(7).copied();
                }
            }
        }
        let spec = ClusterSpec::test_spec(4);
        let mut eng = PregelEngine::new(Caster, PregelConfig::new(spec));
        for id in 0..16u64 {
            eng.add_vertex(id, CState::default()).unwrap();
        }
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

    impl VertexProgram for RowProg {
        type State = RowState;
        type Msg = Vec<f32>;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            state: &mut RowState,
            messages: Vec<Vec<f32>>,
            lookup: &BroadcastLookup<'_, Vec<f32>>,
            out: &mut Outbox<Vec<f32>>,
        ) {
            self.compute_columnar(step, vertex, state, RowsIn::None, messages, lookup, out);
        }

        fn compute_columnar(
            &self,
            step: usize,
            _vertex: u64,
            state: &mut RowState,
            rows: RowsIn<'_>,
            messages: Vec<Vec<f32>>,
            _lookup: &BroadcastLookup<'_, Vec<f32>>,
            out: &mut Outbox<Vec<f32>>,
        ) {
            if step == 0 {
                for &nb in &state.nbrs {
                    out.send_row(nb, &state.feat);
                }
                return;
            }
            let mut acc: Vec<f32> = Vec::new();
            let mut count = 0u32;
            match rows {
                RowsIn::None => {}
                RowsIn::Rows { dim, data } => {
                    for chunk in data.chunks_exact(dim) {
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
            for m in messages {
                fold_row(&mut acc, &m);
                count += 1;
            }
            state.agg = acc;
            state.count = count;
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
        let mut eng = PregelEngine::new(RowProg { fused }, cfg);
        for (id, nbrs, feat) in row_graph() {
            eng.add_vertex(
                id,
                RowState {
                    feat,
                    nbrs,
                    agg: Vec::new(),
                    count: 0,
                },
            )
            .unwrap();
        }
        eng
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
            messages: Vec<f32>,
            _b: &BroadcastLookup<'_, f32>,
            out: &mut Outbox<f32>,
        ) {
            if step == 0 && vertex != 0 {
                out.send(0, (vertex * 10) as f32);
                out.send(0, (vertex * 10 + 1) as f32);
            } else if step == 1 {
                *state = messages;
            }
        }
    }

    #[test]
    fn typed_messages_arrive_in_sender_worker_then_emission_order() {
        for workers in [1usize, 2, 5] {
            let mut eng = PregelEngine::new(
                TypedOrder,
                PregelConfig::new(ClusterSpec::test_spec(workers)),
            );
            for id in 0..12u64 {
                eng.add_vertex(id, Vec::new()).unwrap();
            }
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

    /// Relay chain on the columnar plane under message-driven activation:
    /// rows alone must keep vertices active, and the run must halt once
    /// the chain ends.
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
            _step: usize,
            _vertex: u64,
            _state: &mut RelayState,
            _messages: Vec<f32>,
            _b: &BroadcastLookup<'_, f32>,
            _out: &mut Outbox<f32>,
        ) {
            unreachable!("relay always runs columnar");
        }

        fn compute_columnar(
            &self,
            step: usize,
            vertex: u64,
            state: &mut RelayState,
            rows: RowsIn<'_>,
            _messages: Vec<f32>,
            _b: &BroadcastLookup<'_, f32>,
            out: &mut Outbox<f32>,
        ) {
            let incoming = match rows {
                RowsIn::Rows { data, .. } if !data.is_empty() => Some(data[0]),
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
        }

        fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
            Some(MessageLayout { dim: 1 })
        }
    }

    #[test]
    fn columnar_rows_drive_activation_and_halt() {
        let cfg = PregelConfig::new(ClusterSpec::test_spec(3))
            .with_activation(ActivationPolicy::MessageDriven);
        let mut eng = PregelEngine::new(Relay, cfg);
        for id in 0..5u64 {
            eng.add_vertex(
                id,
                RelayState {
                    got: None,
                    next: (id + 1 < 5).then_some(id + 1),
                },
            )
            .unwrap();
        }
        eng.run(50).unwrap();
        assert!(eng.steps_run() < 50, "should halt early");
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
                    .with_faults(Some(plan))
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
                .with_faults(Some(plan))
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
            .with_faults(Some(plan.clone()))
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
            .with_faults(Some(plan))
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
                _m: Vec<f32>,
                _b: &BroadcastLookup<'_, f32>,
                out: &mut Outbox<f32>,
            ) {
                // No layout declared for this step: must become a typed
                // error, not a panic.
                out.send_row(3, &[1.0, 2.0]);
            }
        }
        let mut eng = PregelEngine::new(NoLayout, PregelConfig::new(ClusterSpec::test_spec(1)));
        eng.add_vertex(3, ()).unwrap();
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
                _m: Vec<f32>,
                _b: &BroadcastLookup<'_, f32>,
                _out: &mut Outbox<f32>,
            ) {
                unreachable!("always columnar");
            }
            fn compute_columnar(
                &self,
                _s: usize,
                _v: u64,
                _state: &mut (),
                _rows: RowsIn<'_>,
                _m: Vec<f32>,
                _b: &BroadcastLookup<'_, f32>,
                out: &mut Outbox<f32>,
            ) {
                out.send_row(4, &[1.0, 2.0, 3.0]);
            }
            fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
                Some(MessageLayout { dim: 2 })
            }
        }
        let mut eng = PregelEngine::new(WrongWidth, PregelConfig::new(ClusterSpec::test_spec(1)));
        eng.add_vertex(4, ()).unwrap();
        let err = eng.run(1).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("3 lanes"), "{err}");
    }
}
