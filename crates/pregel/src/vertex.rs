//! The vertex-program trait, the inbox a kernel reads and the outbox it
//! writes.
//!
//! A program has **one kernel**, [`VertexProgram::compute`]. Each superstep
//! it is handed the vertex's whole [`Inbox`] — everything sent to the
//! vertex last superstep, on either message plane (see the engine docs for
//! the full contract) — and an [`Outbox`] for what it sends next:
//!
//! - the **typed plane**: `P::Msg` values sent with [`Outbox::send`] or
//!   [`Outbox::scatter`] — arbitrary encodable payloads, delivered as sent
//!   (the engine never combines them) and read back through the lent view
//!   [`Inbox::messages`];
//! - the **columnar plane**: fixed-width `f32` rows, available whenever the
//!   program declares a [`MessageLayout`] for the step, read back as
//!   [`Inbox::rows`]. Rows travel through flat buffers with no per-message
//!   allocation, and — when the step also provides a fold ([`AggKind`]) —
//!   are folded into per-destination accumulator rows at the sender (fused
//!   scatter-aggregation). That fold is the engine's sender-side combiner:
//!   it must be commutative and associative, which is exactly what the
//!   paper's annotation rule licenses.
//!
//! A kernel that cannot go on returns an error: the engine fails the
//! superstep with it, naming the step and the vertex.
//!
//! # How a send lands
//!
//! An [`Outbox`] is a view of the sending worker's step, and each call
//! makes its send before it returns; nothing is queued for later.
//! [`Outbox::scatter_row`] takes a row *once* with the span of
//! pre-resolved routes the caller passes (a vertex's planned out-edges, or
//! any sub-slice of them) and hands both to the worker's row of the step's
//! row barrier: on the materialized plane the row is written once into the
//! worker's row table, with an 8-byte `(slot, table row)` reference per
//! destination; on a fused plane it is folded into each destination's
//! partial. [`Outbox::send_row`] is the single-destination
//! form for programs that address by vertex id: it resolves the id through
//! the layout's index right there and sends with a span of one. A
//! destination therefore receives (or folds) a sender's rows in exactly
//! the order the calls named it, whichever form each call used, and
//! `send_row(dst, row)` and `scatter_row` over the one route that resolves
//! `dst` are indistinguishable downstream.
//!
//! The typed plane is addressed the same way: [`Outbox::scatter`] stores
//! one message once in the worker's typed table and gives each route of
//! its span an 8-byte reference to it (a hub's broadcast ref to all its
//! out-edges is one call), and [`Outbox::send`] resolves its id at the
//! call and sends with a span of one — no id is looked up after the call,
//! and no message is copied per route. [`Outbox::broadcast`] charges its
//! payload once per remote worker and publishes it.
//!
//! A misuse — a row with no layout or of the wrong width, an id the layout
//! does not hold — is recorded and fails the superstep once `compute`
//! returns. A kernel that sends and then fails leaves its sends in a step
//! that never reaches the exchange: the superstep returns the error, and
//! the barrier folds no wave that holds a failed sender.

use crate::engine::StepOut;
use inferturbo_cluster::barrier::{GridRow, Refs};
pub use inferturbo_cluster::transport::RowsIn;
use inferturbo_common::codec::{varint_len, Decode, Encode};
use inferturbo_common::layout::{Layout, Route};
pub use inferturbo_common::rows::{AggKind, FusedAggregator, LentRows, MessageLayout};
use inferturbo_common::Result;

/// A deferred misuse of the outbox, recorded instead of panicking inside
/// `compute` and surfaced by the engine as a typed error after the call
/// returns.
pub(crate) enum SendMisuse {
    /// No active layout for the step, or a row of the wrong width
    /// ([`inferturbo_common::Error::InvalidConfig`]).
    Layout(String),
    /// [`Outbox::send`] or [`Outbox::send_row`] named a vertex the layout
    /// does not hold ([`inferturbo_common::Error::InvalidGraph`]).
    UnknownVertex(u64),
}

/// Everything delivered to one vertex for this superstep, handed to
/// [`VertexProgram::compute`]: both message planes, the broadcast table,
/// and the row the vertex itself sent last superstep — all lent, out of
/// the worker's sealed inbox and its senders' row and typed tables.
pub struct Inbox<'a, M> {
    /// The columnar half: rows (or one fused accumulator) sent last
    /// superstep.
    pub rows: RowsIn<'a>,
    /// Typed messages in delivery order (ascending sender worker,
    /// emission order within a sender), each lent where its sender stored
    /// it.
    pub messages: LentMessages<'a, M>,
    /// The row this vertex sent on the materialized row plane last
    /// superstep (the last one, if it sent several), lent where its
    /// worker's row table holds it — on every transport and spill setting,
    /// and after a replay. Empty if it sent no such row: the step was on
    /// the fused or the typed plane, or the vertex had no destination.
    pub own_row: &'a [f32],
    /// Resolves a payload broadcast last superstep by vertex `src` (on
    /// any worker), if one exists.
    pub broadcast: &'a BroadcastLookup<'a, M>,
}

/// The typed messages one slot of a sealed inbox lends out, in delivery
/// order: `(sender, table index)` references into the step's typed
/// tables, one table per sender worker. Each message was stored once, by
/// its sender, however many routes it went to; handing it out copies
/// nothing.
pub struct LentMessages<'a, M> {
    refs: &'a [(u32, u32)],
    tables: &'a [Vec<M>],
}

impl<M> Clone for LentMessages<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for LentMessages<'_, M> {}

impl<'a, M> LentMessages<'a, M> {
    /// The messages `refs` name in `tables`; every reference must name a
    /// message of its table.
    pub(crate) fn new(refs: &'a [(u32, u32)], tables: &'a [Vec<M>]) -> Self {
        LentMessages { refs, tables }
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The messages front to back.
    pub fn iter(&self) -> Messages<'a, M> {
        Messages {
            refs: self.refs.iter(),
            tables: self.tables,
        }
    }
}

impl<'a, M> IntoIterator for LentMessages<'a, M> {
    type Item = &'a M;
    type IntoIter = Messages<'a, M>;

    fn into_iter(self) -> Messages<'a, M> {
        self.iter()
    }
}

/// Iterator over [`LentMessages`], in delivery order.
pub struct Messages<'a, M> {
    refs: std::slice::Iter<'a, (u32, u32)>,
    tables: &'a [Vec<M>],
}

impl<'a, M> Iterator for Messages<'a, M> {
    type Item = &'a M;

    #[inline]
    fn next(&mut self) -> Option<&'a M> {
        let &(sender, at) = self.refs.next()?;
        Some(&self.tables[sender as usize][at as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.refs.size_hint()
    }
}

impl<M> ExactSizeIterator for Messages<'_, M> {}

/// What a vertex sends, handed to [`VertexProgram::compute`]: a view of
/// its worker's step that makes each send where it is called (see the
/// module docs). One per worker per superstep, opened for each vertex in
/// turn, so steady-state sends allocate nothing. It also lends the
/// worker's one [spare row](Outbox::spare_row).
pub struct Outbox<'a, M> {
    pub(crate) layout: &'a Layout,
    /// The sending worker, and the slot and id of the vertex computing.
    pub(crate) worker: usize,
    pub(crate) slot: usize,
    pub(crate) vertex: u64,
    /// The worker's row of the step's row barrier.
    pub(crate) rows: GridRow<'a>,
    /// On the materialized plane: per slot the table row it wrote last.
    pub(crate) sent_at: Option<&'a mut [u32]>,
    /// Per destination worker: a `(slot, typed table index)` per message.
    pub(crate) typed: &'a mut [Refs],
    /// The worker's typed table and its step's accounting.
    pub(crate) step: &'a mut StepOut<M>,
    /// Floating-point work this vertex's compute reported.
    pub(crate) flops: f64,
    /// First misuse of the outbox this compute.
    pub(crate) misuse: Option<SendMisuse>,
    /// See [`Outbox::spare_row`].
    pub(crate) spare: &'a mut Vec<f32>,
}

impl<M> Outbox<'_, M> {
    /// The worker's spare row: one buffer that outlives the compute call
    /// (and the superstep, and — in a pooled [`crate::ScratchPool`] — the
    /// run), for a kernel that replaces a row of its state every step. It
    /// writes the new row here and swaps it with the state's old one,
    /// which becomes the next vertex's spare — so a superstep allocates no
    /// rows in steady state. The engine neither reads nor clears it; a
    /// kernel must not expect to find what it left.
    pub fn spare_row(&mut self) -> &mut Vec<f32> {
        self.spare
    }

    /// Report floating-point work done by this compute call; feeds the
    /// cost model.
    pub fn add_flops(&mut self, flops: f64) {
        self.flops += flops;
    }
}

impl<M: Encode> Outbox<'_, M> {
    /// Send `msg` to vertex `dst` for delivery next superstep (typed
    /// plane): the single-destination form of [`Outbox::scatter`], for
    /// programs that hold vertex ids. `dst` is resolved through the
    /// layout's index here, as [`Outbox::send_row`] resolves its id; an id
    /// the layout does not hold fails the superstep with
    /// [`inferturbo_common::Error::InvalidGraph`].
    pub fn send(&mut self, dst: u64, msg: M) {
        match self.layout.resolve(dst) {
            Some(route) => self.scatter(&[route], msg),
            None => {
                self.misuse.get_or_insert(SendMisuse::UnknownVertex(dst));
            }
        }
    }

    /// Send one typed message to every destination in `edges` (typed
    /// plane): the twin of [`Outbox::scatter_row`]. The message is sized
    /// once and stored once, in the worker's typed table, and each
    /// destination gets an 8-byte reference to it. A destination receives
    /// typed sends — this and [`Outbox::send`] — exactly as the calls
    /// named it; `send(dst, msg)` and `scatter` over the one route that
    /// resolves `dst` are indistinguishable downstream.
    pub fn scatter(&mut self, edges: &[Route], msg: M) {
        if edges.is_empty() {
            return;
        }
        let (layout, out) = (self.layout, &mut *self.step);
        let len = msg.encoded_len();
        let at = out.typed.len() as u32;
        for &route in edges {
            let (w2, slot) = layout.unpack(route);
            // The destination's id is its wire address, read from the slot
            // table, not looked up.
            let wire_len = (len + varint_len(layout.id_of(route))) as u64;
            if w2 != self.worker {
                out.metrics.send(wire_len);
                out.recv_bytes[w2] += wire_len;
                out.recv_records[w2] += 1;
            }
            out.inbox_bytes[w2] += wire_len;
            out.msg_bytes.legacy += wire_len;
            self.typed[w2].push((slot, at));
        }
        out.typed.push(msg);
    }

    /// Whether `row` may be sent; records the first misuse if not.
    fn row_fits(&mut self, call: std::fmt::Arguments<'_>, row: &[f32]) -> bool {
        let problem = match self.rows.dim() {
            None => format!("{call} without an active message layout for this step"),
            Some(dim) if row.len() != dim => {
                format!("{call}: row has {} lanes, layout declares {dim}", row.len())
            }
            Some(_) => return true,
        };
        self.misuse.get_or_insert(SendMisuse::Layout(problem));
        false
    }

    /// Send one fixed-width row to every destination in `edges` on the
    /// columnar plane: written once into the worker's row table, with a
    /// reference per destination — or, when the step has a fused fold,
    /// folded into each destination's accumulator row. `edges` are routes
    /// of the engine's layout — typically the vertex's planned out-edges
    /// ([`inferturbo_common::PlacedVertex::edges`]) or a sub-slice of
    /// them.
    ///
    /// Calling this with no active layout for the step, or with a row of
    /// the wrong width, drops the row and fails the superstep with a typed
    /// [`inferturbo_common::Error::InvalidConfig`] — a program bug is a
    /// configuration error the harness observes, not a worker panic.
    pub fn scatter_row(&mut self, edges: &[Route], row: &[f32]) {
        if self.row_fits(format_args!("scatter_row"), row) {
            self.write_row(edges, row);
        }
    }

    /// Write `row` to `edges` through the worker's grid row; on the
    /// materialized plane it is now the row this vertex sent.
    fn write_row(&mut self, edges: &[Route], row: &[f32]) {
        if edges.is_empty() {
            return;
        }
        let at = self.rows.scatter_row(edges, row);
        if let (Some(at), Some(sent_at)) = (at, self.sent_at.as_deref_mut()) {
            sent_at[self.slot] = at;
        }
    }

    /// Send a fixed-width row to vertex `dst` on the columnar plane: the
    /// single-destination form of [`Outbox::scatter_row`], for programs
    /// that hold vertex ids rather than planned routes. `dst` is resolved
    /// through the layout's index here; an id the layout does not hold
    /// fails the superstep with [`inferturbo_common::Error::InvalidGraph`].
    /// Layout misuse is reported as for `scatter_row`.
    pub fn send_row(&mut self, dst: u64, row: &[f32]) {
        if !self.row_fits(format_args!("send_row to vertex {dst}"), row) {
            return;
        }
        match self.layout.resolve(dst) {
            Some(route) => self.write_row(&[route], row),
            None => {
                self.misuse.get_or_insert(SendMisuse::UnknownVertex(dst));
            }
        }
    }

    /// Publish a payload to every worker's broadcast table for the next
    /// superstep, keyed by the sending vertex id. Costs one network copy
    /// per remote worker instead of one per out-edge — the engine-level
    /// primitive behind the paper's broadcast strategy. The sender pays
    /// `workers - 1` copies, each remote worker receives one, and every
    /// worker holds the table.
    pub fn broadcast(&mut self, payload: M) {
        let (out, n) = (&mut *self.step, self.layout.n_workers());
        let len = (payload.encoded_len() + varint_len(self.vertex)) as u64;
        for w2 in (0..n).filter(|&w2| w2 != self.worker) {
            out.recv_bytes[w2] += len;
            out.recv_records[w2] += 1;
        }
        let remote = n as u64 - 1;
        out.metrics.bytes_out += len * remote;
        out.metrics.records_out += remote;
        out.msg_bytes.legacy += len * remote;
        for b in out.inbox_bytes.iter_mut() {
            *b += len;
        }
        out.bcasts.push((self.vertex, payload));
    }
}

/// Resolves a broadcast payload by its publisher's vertex id. The payload
/// is lent out of the worker's broadcast table, so a hub's message is
/// never copied per reference to it.
pub type BroadcastLookup<'a, M> = dyn Fn(u64) -> Option<&'a M> + 'a;

/// A vertex program: per-vertex state, a message type, and the superstep
/// kernel.
pub trait VertexProgram {
    /// Per-vertex state held in worker memory between supersteps.
    type State;
    /// Message type; must round-trip the wire codec so byte accounting is
    /// exact and a byte-moving transport can carry it.
    type Msg: Encode + Decode + Clone;

    /// The superstep kernel for one vertex: read `inbox`, update `state`,
    /// send through `out`. Every vertex computes every superstep, inbox
    /// empty or not — the layer-wise GNN pattern, where `apply_node` must
    /// fire even for nodes without in-edges. An `Err` fails the superstep
    /// — and, under a recovery policy, is replayed from the last
    /// checkpoint only if it
    /// [`is_transient`](inferturbo_common::Error::is_transient).
    fn compute(
        &self,
        step: usize,
        vertex: u64,
        state: &mut Self::State,
        inbox: Inbox<'_, Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    ) -> Result<()>;

    /// Declare that messages emitted during superstep `step` are
    /// fixed-width `f32` rows. Returning `Some` routes that step's
    /// [`Outbox::send_row`] traffic through the columnar plane; the typed
    /// plane stays available for variable-width messages in the same step.
    fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
        None
    }

    /// Optional fold for rows emitted during superstep `step` (only
    /// consulted when [`VertexProgram::message_layout`] is `Some`).
    /// Providing one licenses the engine to fold rows into
    /// per-destination accumulator rows at the sender and merge them at
    /// the barrier — legal exactly when the fold is commutative and
    /// associative, the paper's `@Gather(partial=...)` annotation rule.
    /// The fold is one of the closed set [`AggKind`] names, the same set
    /// the MapReduce engine and the wire know, so it is inlined into the
    /// per-edge loop and crosses a process boundary as a tag.
    fn fused_aggregator(&self, _step: usize) -> Option<AggKind> {
        None
    }

    /// Resident size of a vertex state in bytes, for the memory model.
    /// The default charges nothing; GNN states override this.
    fn state_bytes(&self, _state: &Self::State) -> u64 {
        0
    }
}
