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
//! # The spools
//!
//! The columnar half of an [`Outbox`] is one spool: a flat buffer of rows,
//! and for each row a **span** of [`Route`]s — the destinations that row
//! goes to. [`Outbox::scatter_row`] spools a row *once* with the span of
//! pre-resolved routes the caller passes (a vertex's planned out-edges, or
//! any sub-slice of them): `out_deg` destinations cost one row copy and
//! `out_deg` 4-byte routes. [`Outbox::send_row`] is the single-destination
//! form for programs that address by vertex id: it resolves the id through
//! the layout's index right there and spools the row with a span of one.
//! Both write the same spool, in call order, and the engine's one routing
//! loop walks it front to back — so a program may mix the two freely, and
//! a destination receives (or folds) its rows in exactly the order the
//! calls named it, whichever form each call used. `send_row(dst, row)` and
//! `scatter_row` over the one route that resolves `dst` are
//! indistinguishable downstream.
//!
//! The typed half is addressed the same way, in a spool of its own:
//! [`Outbox::scatter`] spools one message with a span of routes (a hub's
//! broadcast ref to all its out-edges is one entry), [`Outbox::send`]
//! resolves its id at the call and spools a span of one, and the engine
//! walks that spool in call order, storing each message once in the
//! worker's typed table and giving each route of its span an 8-byte
//! reference to it — no id is looked up after the call, and no message is
//! copied per route.

use inferturbo_common::codec::{Decode, Encode};
use inferturbo_common::layout::{Layout, Route};
pub use inferturbo_common::rows::{AggKind, FusedAggregator, LentRows, MessageLayout};
use inferturbo_common::Result;
use std::sync::Arc;

/// The columnar half of a vertex's [`Inbox`]. Typed-plane messages
/// (broadcast refs, control payloads) arrive beside it in
/// [`Inbox::messages`] regardless of which variant this is.
#[derive(Debug, Clone, Copy)]
pub enum RowsIn<'a> {
    /// No columnar plane was active for the messages feeding this step.
    None,
    /// Materialized rows in delivery order (ascending sender, emission
    /// order within a sender), each lent as a slice where it lies — in
    /// process, the row its sender wrote once into its row table.
    Rows(LentRows<'a>),
    /// Fused accumulator row: `count` raw messages were folded into `acc`
    /// across the scatter and the barrier merge. `count == 0` means no
    /// messages arrived (and `acc` holds only the aggregator's identity).
    Fused {
        dim: usize,
        acc: &'a [f32],
        count: u32,
    },
}

impl RowsIn<'_> {
    /// Number of raw messages represented by this inbox half.
    pub fn count(&self) -> usize {
        match self {
            RowsIn::None => 0,
            RowsIn::Rows(rows) => rows.len(),
            RowsIn::Fused { count, .. } => *count as usize,
        }
    }
}

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

/// Per-compute output collector handed to [`VertexProgram::compute`].
/// One instance is reused across a worker's whole superstep — cleared
/// between vertices, capacity retained — so steady-state sends allocate
/// nothing. It also carries the worker's one [spare row](Outbox::spare_row).
pub struct Outbox<M> {
    /// The typed spool, laid out like the row spool: message `i` goes to
    /// `msg_routes[msg_span_ends[i - 1]..msg_span_ends[i]]` (from 0 for
    /// the first).
    pub(crate) messages: Vec<M>,
    pub(crate) msg_span_ends: Vec<usize>,
    pub(crate) msg_routes: Vec<Route>,
    pub(crate) broadcasts: Vec<M>,
    /// The row spool (see the module docs): `rows` holds one `row_dim`-wide
    /// row per span, and row `i` goes to
    /// `routes[span_ends[i - 1]..span_ends[i]]` (from 0 for the first).
    /// `row_dim` is `None` when the step has no active [`MessageLayout`].
    pub(crate) rows: Vec<f32>,
    pub(crate) span_ends: Vec<usize>,
    pub(crate) routes: Vec<Route>,
    pub(crate) row_dim: Option<usize>,
    pub(crate) flops: f64,
    /// First misuse of the outbox this compute.
    pub(crate) misuse: Option<SendMisuse>,
    /// See [`Outbox::spare_row`]; never cleared.
    spare: Vec<f32>,
    /// The layout `send` and `send_row` resolve ids through.
    layout: Arc<Layout>,
}

impl<M> Outbox<M> {
    pub(crate) fn new(layout: Arc<Layout>) -> Self {
        Outbox {
            messages: Vec::new(),
            msg_span_ends: Vec::new(),
            msg_routes: Vec::new(),
            broadcasts: Vec::new(),
            rows: Vec::new(),
            span_ends: Vec::new(),
            routes: Vec::new(),
            row_dim: None,
            flops: 0.0,
            misuse: None,
            spare: Vec::new(),
            layout,
        }
    }

    /// Reset for the next vertex, keeping buffer capacity.
    pub(crate) fn clear(&mut self) {
        self.messages.clear();
        self.msg_span_ends.clear();
        self.msg_routes.clear();
        self.broadcasts.clear();
        self.rows.clear();
        self.span_ends.clear();
        self.routes.clear();
        self.flops = 0.0;
        self.misuse = None;
    }

    /// Reset for a new superstep (scratch-pool reuse): clear everything and
    /// adopt the step's row plane and the engine's layout. Capacity
    /// survives across supersteps — and, when the outbox lives in a pooled
    /// [`crate::ScratchPool`], across whole runs.
    pub(crate) fn reset(&mut self, layout: &Arc<Layout>, row_dim: Option<usize>) {
        self.clear();
        self.row_dim = row_dim;
        if !Arc::ptr_eq(&self.layout, layout) {
            self.layout = Arc::clone(layout);
        }
    }

    /// The worker's spare row: one buffer that outlives the compute call
    /// (and, with the outbox, the superstep and a pooled run), for a
    /// kernel that replaces a row of its state every step. It writes the
    /// new row here and swaps it with the state's old one, which becomes
    /// the next vertex's spare — so a superstep allocates no rows in
    /// steady state. The engine neither reads nor clears it; a kernel
    /// must not expect to find what it left.
    pub fn spare_row(&mut self) -> &mut Vec<f32> {
        &mut self.spare
    }

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
    /// plane): the twin of [`Outbox::scatter_row`]. The message is spooled
    /// once with its span of routes; the engine sizes it once, stores it
    /// once in the worker's typed table and hands each destination an
    /// 8-byte reference to it. Typed sends — this and
    /// [`Outbox::send`] — share one spool in call order, so a destination
    /// receives them exactly as the calls named it; `send(dst, msg)` and
    /// `scatter` over the one route that resolves `dst` are
    /// indistinguishable downstream.
    pub fn scatter(&mut self, edges: &[Route], msg: M) {
        if edges.is_empty() {
            return;
        }
        self.messages.push(msg);
        self.msg_routes.extend_from_slice(edges);
        self.msg_span_ends.push(self.msg_routes.len());
    }

    /// Whether `row` may enter the spool; records the first misuse if not.
    fn row_fits(&mut self, call: std::fmt::Arguments<'_>, row: &[f32]) -> bool {
        let problem = match self.row_dim {
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
    /// columnar plane. The row is spooled once, whatever the fan-out; the
    /// engine's routing loop then writes it once into the worker's row
    /// table and gives each destination a reference to it (or, when the
    /// step has a fused fold, folds it into each destination's
    /// accumulator row). `edges` are routes of the engine's layout —
    /// typically the vertex's planned out-edges
    /// ([`inferturbo_common::PlacedVertex::edges`]) or a sub-slice of them.
    ///
    /// Calling this with no active layout for the step, or with a row of
    /// the wrong width, drops the row and fails the superstep with a typed
    /// [`inferturbo_common::Error::InvalidConfig`] — a program bug is a
    /// configuration error the harness observes, not a worker panic.
    pub fn scatter_row(&mut self, edges: &[Route], row: &[f32]) {
        if self.row_fits(format_args!("scatter_row"), row) {
            self.spool(edges, row);
        }
    }

    fn spool(&mut self, edges: &[Route], row: &[f32]) {
        if edges.is_empty() {
            return;
        }
        self.rows.extend_from_slice(row);
        self.routes.extend_from_slice(edges);
        self.span_ends.push(self.routes.len());
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
            Some(route) => self.spool(&[route], row),
            None => {
                self.misuse.get_or_insert(SendMisuse::UnknownVertex(dst));
            }
        }
    }

    /// Visit the row spool in call order: each row (`dim` lanes) with the
    /// span of routes it goes to.
    pub(crate) fn for_each_span(&self, dim: usize, mut f: impl FnMut(&[f32], &[Route])) {
        let mut start = 0;
        for (i, &end) in self.span_ends.iter().enumerate() {
            f(&self.rows[i * dim..(i + 1) * dim], &self.routes[start..end]);
            start = end;
        }
    }

    /// Publish a payload to every worker's broadcast table for the next
    /// superstep, keyed by the sending vertex id. Costs one network copy
    /// per remote worker instead of one per out-edge — the engine-level
    /// primitive behind the paper's broadcast strategy.
    pub fn broadcast(&mut self, payload: M) {
        self.broadcasts.push(payload);
    }

    /// Report floating-point work done by this compute call; feeds the
    /// cost model.
    pub fn add_flops(&mut self, flops: f64) {
        self.flops += flops;
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
