//! The row barrier: how both engines shuffle their columnar plane.
//!
//! A Pregel superstep and a MapReduce round end the same way (§IV-C: a
//! MapReduce round is a superstep whose state travels in the shuffle):
//! every sender computes into its row of a `[sender][destination]` shard
//! grid, the grid crosses to its destinations, and each destination seals
//! what reached it into the inbox its next compute reads. [`RowBarrier`]
//! is that sequence, written once. It owns:
//!
//! - **the grid**, pooled ([`GridPool`]) and reserved from the plan's
//!   [`CellCounts`] ([`Reserve`]). A materialized row is written once
//!   into its sender's [`RowTable`], with a `(slot, table row)` reference
//!   per route; a fused row ([`RowPlane::fold`]) folds into one partial
//!   per destination slot, copy-on-first ([`FusedSlotShard::accumulate`]);
//! - **the wave loop** ([`RowBarrier::compute`]): in process a fused plane
//!   computes in waves of [`Parallelism::get`] senders, and as each wave
//!   ends every destination folds its shards in ascending sender order
//!   ([`FusedFold::fold`]), so `threads × workers` shards are alive, not
//!   `workers²`; any other round computes in one wave;
//! - **the hand-off** to a [`Transport`]: one that moves bytes gets the
//!   materialized rows packed into one [`RowShard`] per (sender,
//!   destination) and the fused shards as they are — merged on the far
//!   side ([`RowBarrier::exchange`]), or as [`BucketRef`]s, slots widened
//!   to `u64` keys and narrowed back on return
//!   ([`RowBarrier::exchange_concat`]). In process the call only marks the
//!   barrier, and its fault sites fire;
//! - **the seal** ([`RowBarrier::seal`]) under the engine's
//!   [`SpillPolicy`]: rows lent from the senders' tables
//!   ([`RowArena::seal_refs`]), accumulators ([`FusedFold::seal`]), or
//!   what came back over the wire.
//!
//! An engine keeps its typed plane and its accounting; a destination's
//! [`Tally`] is told every record merged into its inbox as it is folded or
//! sealed. Every destination merges its senders in ascending order, each
//! sender's rows in emission order, whatever the waves, threads or
//! transport — so every inbox is bit-identical across all of them.

use crate::fault::FaultInjector;
use crate::transport::frame::{EncodedKeyRecords, EncodedRecords};
use crate::transport::{
    BucketRef, ColsShards, ConcatDest, ConcatExchange, DestShards, Exchange, MergedCols, Transport,
};
use inferturbo_common::codec::varint_len;
use inferturbo_common::layout::{CellCounts, Layout, Route};
use inferturbo_common::par::par_map;
use inferturbo_common::rows::{
    row_payload_len, AggKind, FusedFold, FusedRows, FusedSlotShard, RowArena, RowBlock, RowShard,
    RowTable, SpillPolicy,
};
use inferturbo_common::{Error, Parallelism, Result};
use std::sync::Arc;

/// `(destination slot, index in the sender's table)` per message one
/// sender sends one destination, in emission order.
pub type Refs = Vec<(u32, u32)>;

/// A round's columnar plane: its row width and, when the round
/// partial-gathers, the fold its senders combine with.
#[derive(Debug, Clone, Copy)]
pub struct RowPlane {
    pub dim: usize,
    pub fold: Option<AggKind>,
}

/// What a destination is told of each record merged into its inbox: its
/// slot and fold count (1 for a materialized row).
pub trait Tally: Send {
    fn record(&mut self, slot: u32, count: u32);
}

impl Tally for () {
    #[inline]
    fn record(&mut self, _slot: u32, _count: u32) {}
}

/// How each cell is reserved before its sender writes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reserve<'c> {
    /// Rows per cell; `None` reserves nothing.
    pub counts: Option<&'c CellCounts>,
    /// Lanes reserved per row: at least the plane's width.
    pub lanes: usize,
    /// Every sender writes exactly `counts`: a debug build checks each
    /// cell once its sender has computed.
    pub exact: bool,
}

/// The grid's allocations between barriers: per sender every row table it
/// wrote (free, or still lent out), the reference lists
/// `[sender][destination]`, and the fused shards `[sender or wave
/// slot][destination]` — slot `i` of waves of `t` hosts senders `i`,
/// `i + t`, …. A table is written again only once nothing else holds it.
#[derive(Default)]
pub struct GridPool {
    tables: Vec<Vec<RowTable>>,
    refs: Vec<Vec<Refs>>,
    fused: Vec<Vec<FusedSlotShard>>,
}

/// A [`GridPool`]'s tables, reference lists and fused shards.
pub type PoolCells<'p> = (
    &'p [Vec<RowTable>],
    &'p [Vec<Refs>],
    &'p [Vec<FusedSlotShard>],
);

impl GridPool {
    pub fn cells(&self) -> PoolCells<'_> {
        (&self.tables, &self.refs, &self.fused)
    }
}

/// A pooled `rows × n` grid, grown with `new` cells where it is short and
/// cut where it is long.
pub fn pooled_grid<T>(
    mut grid: Vec<Vec<T>>,
    rows: usize,
    n: usize,
    new: impl Fn() -> T,
) -> Vec<Vec<T>> {
    grid.resize_with(rows, Vec::new);
    for row in &mut grid {
        row.resize_with(n, &new);
    }
    grid
}

/// Swap the two axes of a square grid, keeping each axis's order.
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

enum Grid {
    None,
    Rows {
        tables: Vec<RowTable>,
        refs: Vec<Vec<Refs>>,
    },
    Fused {
        kind: AggKind,
        shards: Vec<Vec<FusedSlotShard>>,
    },
}

/// What a destination holds before its seal.
enum Inbox {
    /// Nothing of its own: the seal reads the senders' cells.
    Pending,
    Folding(FusedFold),
    Merged(MergedCols),
}

struct Dest<T> {
    tally: T,
    inbox: Inbox,
}

/// One round's row barrier: [`RowBarrier::open`], [`RowBarrier::compute`]
/// every sender, hand it over ([`RowBarrier::exchange`] or
/// [`RowBarrier::exchange_concat`]), [`RowBarrier::seal`]. See the module
/// docs.
pub struct RowBarrier<'a, T: Tally = ()> {
    layout: &'a Layout,
    transport: &'a dyn Transport,
    spill: Option<&'a SpillPolicy>,
    reserve: Reserve<'a>,
    /// The plane's row width (0: no rows).
    dim: usize,
    grid: Grid,
    /// Senders computing at once; `folds`: each wave is folded as it ends.
    wave: usize,
    folds: bool,
    dests: Vec<Dest<T>>,
}

impl<'a, T: Tally> RowBarrier<'a, T> {
    /// Open a barrier over `layout` on `plane` (`None`: no rows), for
    /// `transport` and sealing under `spill`, its grid from `pool`: a
    /// pooled table is reused only once nothing else holds it, by the
    /// sender that wrote it. Destination `w2` starts `tally(w2)`.
    pub fn open(
        plane: Option<RowPlane>,
        pool: &mut GridPool,
        layout: &'a Layout,
        (transport, spill): (&'a dyn Transport, Option<&'a SpillPolicy>),
        reserve: Reserve<'a>,
        mut tally: impl FnMut(usize) -> T,
    ) -> Self {
        let n = layout.n_workers();
        let fold = plane.and_then(|p| p.fold);
        let folds = fold.is_some() && !transport.needs_bytes();
        let wave = if folds {
            Parallelism::get().min(n).max(1)
        } else {
            n.max(1)
        };
        let dim = plane.map_or(0, |p| p.dim);
        let grid = match (plane, fold) {
            (None, _) => Grid::None,
            (Some(_), None) => {
                pool.tables.resize_with(n, Vec::new);
                let tables = pool.tables.iter_mut().map(|own| {
                    match own.iter().position(|t| Arc::strong_count(t) == 1) {
                        Some(free) => own.remove(free),
                        None => Arc::new(RowBlock::new(dim)),
                    }
                });
                let refs = pooled_grid(std::mem::take(&mut pool.refs), n, n, Vec::new);
                Grid::Rows {
                    tables: tables.collect(),
                    refs,
                }
            }
            (Some(_), Some(kind)) => {
                let new = || FusedSlotShard::new(dim, 0);
                let shards = pooled_grid(std::mem::take(&mut pool.fused), wave.min(n), n, new);
                Grid::Fused { kind, shards }
            }
        };
        let dests = (0..n).map(|w2| Dest {
            tally: tally(w2),
            inbox: match fold {
                Some(kind) if folds => {
                    Inbox::Folding(FusedRows::open(dim, layout.n_slots(w2), &kind))
                }
                _ => Inbox::Pending,
            },
        });
        RowBarrier {
            layout,
            transport,
            spill,
            reserve,
            dim,
            grid,
            wave,
            folds,
            dests: dests.collect(),
        }
    }

    /// Run `work(w, inputs[w], row)` for every sender `w`, `row` its row
    /// of the grid, reset: fork-join a wave of senders at a time, each
    /// wave folded as it ends when the barrier folds. Once a sender failed
    /// nothing more is folded, but every sender still computes — and fires
    /// its own fault sites — as in one fork-join over all of them. Returns
    /// the results in sender order.
    pub fn compute<S: Send, R: Send>(
        &mut self,
        inputs: Vec<S>,
        work: impl Fn(usize, S, &mut GridRow<'_>) -> Result<R> + Sync,
    ) -> Vec<Result<R>> {
        let (n, wave, layout, reserve) = (inputs.len(), self.wave, self.layout, self.reserve);
        debug_assert_eq!(n, layout.n_workers(), "one input per sender");
        let mut inputs = inputs.into_iter();
        let (mut outs, mut failed) = (Vec::with_capacity(n), false);
        for lo in (0..n).step_by(wave) {
            let len = wave.min(n - lo);
            let tasks: Vec<_> = self.rows(len).into_iter().zip(inputs.by_ref()).collect();
            let done = par_map(tasks, |i, (cells, input)| {
                let mut row = GridRow { layout, cells };
                row.reset(lo + i, wave, reserve);
                let out = work(lo + i, input, &mut row);
                if cfg!(debug_assertions) && reserve.exact && out.is_ok() {
                    row.check(lo + i, reserve);
                }
                out
            });
            failed |= done.iter().any(Result::is_err);
            outs.extend(done);
            if let (Grid::Fused { kind, shards }, true) = (&self.grid, self.folds && !failed) {
                fold_wave(&mut self.dests, &shards[..len], kind);
            }
        }
        outs
    }

    /// The first `len` rows of the grid, one per sender of a wave.
    fn rows(&mut self, len: usize) -> Vec<Cells<'_>> {
        let dim = self.dim;
        match &mut self.grid {
            Grid::None => (0..len).map(|_| Cells::None).collect(),
            // `open` took only tables nothing else holds: `make_mut`
            // lends each in place.
            Grid::Rows { tables, refs } => (tables.iter_mut().zip(refs).take(len))
                .map(|(table, refs)| Cells::Rows {
                    dim,
                    table: Arc::make_mut(table),
                    refs,
                })
                .collect(),
            Grid::Fused { kind, shards } => (shards.iter_mut().take(len))
                .map(|shards| Cells::Fused {
                    dim,
                    kind: *kind,
                    shards,
                })
                .collect(),
        }
    }

    /// Each sender's row table on the materialized plane; else empty.
    pub fn tables(&self) -> &[RowTable] {
        match &self.grid {
            Grid::Rows { tables, .. } => tables,
            _ => &[],
        }
    }

    /// For a transport that moves bytes, `[destination][sender]`: the
    /// materialized rows packed per cell — the one place a row is copied
    /// per edge. Otherwise empty.
    fn packed(&self) -> Vec<Vec<RowShard>> {
        let Grid::Rows { tables, refs } = &self.grid else {
            return Vec::new();
        };
        if !self.transport.needs_bytes() {
            return Vec::new();
        }
        let pack = |w2: usize, (table, refs): (&RowTable, &Vec<Refs>)| {
            let mut shard = RowShard::new(self.dim);
            for &(slot, at) in &refs[w2] {
                shard.push(slot, table.row(at as usize));
            }
            shard
        };
        (0..refs.len())
            .map(|w2| tables.iter().zip(refs).map(|cell| pack(w2, cell)).collect())
            .collect()
    }

    /// The Pregel hand-off: [`Transport::exchange`], beside each
    /// destination's `typed` records, firing the `SealBarrier` /
    /// `SpillWrite` fault sites per destination. A transport that moves
    /// bytes gets every cell and merges it into the destination's inbox;
    /// otherwise it gets no rows. Returns the merged typed records and the
    /// bytes that crossed.
    pub fn exchange(
        &mut self,
        step: usize,
        faults: Option<&FaultInjector>,
        typed: Vec<Option<Vec<EncodedRecords>>>,
    ) -> Result<(Vec<Option<EncodedRecords>>, u64)> {
        let moves = self.transport.needs_bytes();
        let packed = self.packed();
        // A destination's fused shards are handed over as one slice.
        let flip = |grid: &mut Grid| {
            if let (Grid::Fused { shards, .. }, true) = (grid, moves) {
                *shards = transpose(std::mem::take(shards));
            }
        };
        flip(&mut self.grid);
        let (layout, dim, grid) = (self.layout, self.dim, &self.grid);
        let dests = typed
            .into_iter()
            .enumerate()
            .map(|(w2, legacy)| DestShards {
                n_slots: layout.n_slots(w2),
                cols: match grid {
                    Grid::Rows { .. } if moves => ColsShards::Rows {
                        dim,
                        shards: &packed[w2],
                    },
                    Grid::Fused { kind, shards } if moves => ColsShards::Fused {
                        dim,
                        agg: kind,
                        shards: &shards[w2],
                    },
                    _ => ColsShards::None,
                },
                legacy,
            });
        let spill = self.spill;
        let merged = (self.transport).exchange(Exchange {
            step,
            faults,
            spill,
            dests: dests.collect(),
        });
        flip(&mut self.grid);
        let merged = merged?;
        let mut typed = Vec::with_capacity(merged.dests.len());
        for (dest, merged) in self.dests.iter_mut().zip(merged.dests) {
            if moves {
                dest.inbox = Inbox::Merged(merged.cols);
            }
            typed.push(merged.legacy);
        }
        Ok((typed, merged.wire_bytes))
    }

    /// The MapReduce hand-off: [`Transport::exchange_concat`], beside each
    /// destination's `typed` records. A transport that moves bytes gets,
    /// per destination, one bucket per sender that sent it rows,
    /// ascending — the cell's slots widened to `u64` keys, its fold counts
    /// (a materialized row counting 1) and rows — and the concatenation
    /// that comes back has its keys narrowed to slots, each checked, and is
    /// folded or sealed into the inbox at once. Otherwise the call carries
    /// no rows. Returns the concatenated typed records and the bytes that
    /// crossed.
    pub fn exchange_concat(
        &mut self,
        typed: Vec<Option<Vec<EncodedKeyRecords>>>,
    ) -> Result<(Vec<Option<EncodedKeyRecords>>, u64)> {
        let moves = self.transport.needs_bytes();
        let packed = self.packed();
        let (layout, dim, grid) = (self.layout, self.dim, &self.grid);
        let n = layout.n_workers();
        // Per (sender, destination) cell: its slots as bucket keys, its fold
        // counts — a materialized row counting 1 — and its rows.
        let ones = vec![
            1u32;
            packed
                .iter()
                .flatten()
                .map(RowShard::len)
                .max()
                .unwrap_or(0)
        ];
        let cell = |s: usize, w2: usize| -> (Vec<u64>, &[u32], &RowBlock) {
            match grid {
                Grid::Fused { shards, .. } => {
                    let sh = &shards[s][w2];
                    (
                        sh.keys.iter().map(|&k| k.into()).collect(),
                        &sh.counts,
                        &sh.rows,
                    )
                }
                _ => {
                    let sh = &packed[w2][s];
                    (
                        sh.slots.iter().map(|&k| k.into()).collect(),
                        &ones[..sh.len()],
                        &sh.rows,
                    )
                }
            }
        };
        let cells: Vec<Vec<_>> = match grid {
            Grid::Rows { .. } | Grid::Fused { .. } if moves => (0..n)
                .map(|w2| (0..n).map(|s| cell(s, w2)).collect())
                .collect(),
            _ => Vec::new(),
        };
        let dests = typed.into_iter().enumerate().map(|(w2, legacy)| {
            let sent = cells.get(w2).into_iter().flatten();
            let buckets: Vec<BucketRef<'_>> = (sent.filter(|(keys, ..)| !keys.is_empty()))
                .map(|(keys, counts, rows)| BucketRef { keys, counts, rows })
                .collect();
            ConcatDest {
                dim,
                buckets: (!buckets.is_empty()).then_some(buckets),
                legacy,
            }
        });
        let merged = self.transport.exchange_concat(ConcatExchange {
            dests: dests.collect(),
        })?;
        let mut typed = Vec::with_capacity(n);
        for (w2, (dest, merged)) in self.dests.iter_mut().zip(merged.dests).enumerate() {
            typed.push(merged.legacy);
            let n_slots = layout.n_slots(w2);
            match (&self.grid, merged.bucket) {
                (_, _) if !moves => {}
                (Grid::Fused { kind, .. }, bucket) => {
                    let mut fold = FusedRows::open(dim, n_slots, kind);
                    if let Some(b) = bucket {
                        // Partials only: a fold walks them, not the index.
                        let mut partials = FusedSlotShard::new(dim, 0);
                        partials.keys = narrow(b.keys, n_slots)?;
                        (partials.counts, partials.rows) = (b.counts, b.rows);
                        fold_shard(&mut fold, &mut dest.tally, &partials, kind);
                    }
                    dest.inbox = Inbox::Folding(fold);
                }
                (_, Some(b)) => {
                    let shard = RowShard {
                        slots: narrow(b.keys, n_slots)?,
                        rows: b.rows,
                    };
                    for &slot in &shard.slots {
                        dest.tally.record(slot, 1);
                    }
                    let arena =
                        RowArena::seal(dim, n_slots, std::slice::from_ref(&shard), self.spill)?;
                    dest.inbox = Inbox::Merged(MergedCols::Rows(arena));
                }
                (_, None) => {}
            }
        }
        Ok((typed, merged.wire_bytes))
    }

    /// Seal every destination's inbox, fork-join (failures surface in
    /// ascending destination order), and hand the grid back to `pool`: what
    /// the transport merged, the accumulators ([`FusedFold::seal`]), or the
    /// materialized rows in sender-ascending, emission order, lent from the
    /// senders' tables ([`RowArena::seal_refs`]). Each destination's tally
    /// comes back beside its inbox.
    pub fn seal(self, pool: &mut GridPool) -> Result<Vec<(MergedCols, T)>> {
        let RowBarrier {
            layout,
            spill,
            dim,
            mut grid,
            dests,
            ..
        } = self;
        let (refs, lent): (Vec<Vec<Refs>>, Arc<[RowTable]>) = match &mut grid {
            Grid::Rows { tables, refs } => (
                transpose(std::mem::take(refs)),
                tables.iter().cloned().collect(),
            ),
            _ => (Vec::new(), Arc::new([])),
        };
        let sealed = par_map(dests, |w2, Dest { mut tally, inbox }| {
            let cols = match inbox {
                Inbox::Merged(cols) => cols,
                Inbox::Folding(fold) => MergedCols::Fused(fold.seal(spill)?),
                Inbox::Pending => match refs.get(w2) {
                    None => MergedCols::None,
                    Some(refs) => {
                        for &(slot, _) in refs.iter().flatten() {
                            tally.record(slot, 1);
                        }
                        let (n_slots, lent) = (layout.n_slots(w2), Arc::clone(&lent));
                        MergedCols::Rows(RowArena::seal_refs(dim, n_slots, refs, lent, spill)?)
                    }
                },
            };
            Ok((cols, tally))
        });
        match grid {
            Grid::None => {}
            Grid::Rows { tables, .. } => {
                pool.refs = transpose(refs);
                for (own, table) in pool.tables.iter_mut().zip(tables) {
                    own.push(table);
                }
            }
            Grid::Fused { shards, .. } => pool.fused = shards,
        }
        sealed.into_iter().collect()
    }
}

/// Fold one wave's shards into the destinations' accumulators:
/// `wave[i][w2]` is what the wave's `i`-th sender (ascending) sent `w2`.
/// Each destination folds in sender order, so over the waves of a round
/// it makes exactly the one ascending-sender merge [`FusedRows::merge`]
/// makes. Destinations fold in parallel.
fn fold_wave<T: Tally>(dests: &mut [Dest<T>], wave: &[Vec<FusedSlotShard>], kind: &AggKind) {
    par_map(dests.iter_mut().collect(), |w2, Dest { tally, inbox }| {
        if let Inbox::Folding(fold) = inbox {
            for sender in wave {
                fold_shard(fold, tally, &sender[w2], kind);
            }
        }
    });
}

/// Fold one sender's partials into a destination, telling its tally.
fn fold_shard(
    fold: &mut FusedFold,
    tally: &mut impl Tally,
    shard: &FusedSlotShard,
    kind: &AggKind,
) {
    for (&slot, &count) in shard.keys.iter().zip(&shard.counts) {
        tally.record(slot, count);
    }
    fold.fold(shard, kind);
}

/// A bucket's keys back to the slots of a destination holding `n_slots`,
/// each checked: a key that names no slot is a codec error.
fn narrow(keys: Vec<u64>, n_slots: usize) -> Result<Vec<u32>> {
    let slot = |k: u64| u32::try_from(k).ok().filter(|&s| (s as usize) < n_slots);
    let named = |k| {
        slot(k).ok_or_else(|| Error::Codec(format!("bucket key {k} names none of {n_slots} slots")))
    };
    keys.into_iter().map(named).collect()
}

/// The partials wave slot `w` reserves for destination `w2`: the most of
/// any sender it hosts.
fn reserved_partials(counts: &CellCounts, (w, wave, n): (usize, usize, usize), w2: usize) -> usize {
    let hosted = (w % wave..n).step_by(wave);
    hosted.map(|s| counts.partials(s, w2)).max().unwrap_or(0)
}

/// One sender's cells, the plane resolved once, so the per-edge loop
/// carries no plane test.
enum Cells<'g> {
    None,
    Rows {
        dim: usize,
        table: &'g mut RowBlock,
        refs: &'g mut [Refs],
    },
    /// `AggKind`'s fold and the shard's row accessors are `#[inline]` in
    /// `inferturbo_common`, so the per-edge loop is the lane loop itself.
    Fused {
        dim: usize,
        kind: AggKind,
        shards: &'g mut [FusedSlotShard],
    },
}

/// A sender's row of the grid, lent to its compute: one cell per
/// destination worker.
pub struct GridRow<'g> {
    layout: &'g Layout,
    cells: Cells<'g>,
}

impl GridRow<'_> {
    /// The plane's row width; `None` when the round sends no rows.
    pub fn dim(&self) -> Option<usize> {
        match &self.cells {
            Cells::None => None,
            Cells::Rows { dim, .. } | Cells::Fused { dim, .. } => Some(*dim),
        }
    }

    /// Whether rows fold into partials.
    pub fn fuses(&self) -> bool {
        matches!(self.cells, Cells::Fused { .. })
    }

    /// The same cells, lent for a shorter borrow.
    pub fn reborrow(&mut self) -> GridRow<'_> {
        let cells = match &mut self.cells {
            Cells::None => Cells::None,
            Cells::Rows { dim, table, refs } => Cells::Rows {
                dim: *dim,
                table,
                refs,
            },
            Cells::Fused { dim, kind, shards } => Cells::Fused {
                dim: *dim,
                kind: *kind,
                shards,
            },
        };
        GridRow {
            layout: self.layout,
            cells,
        }
    }

    /// Send `row` to every route of `routes`, in order: written once into
    /// the sender's table and referenced per route — returning its table
    /// row — or folded into each route's slot, copy-on-first. Per (sender,
    /// destination) that is emission order, the whole fold-order contract
    /// on the sender side.
    #[inline]
    pub fn scatter_row(&mut self, routes: &[Route], row: &[f32]) -> Option<u32> {
        let layout = self.layout;
        match &mut self.cells {
            Cells::None => {
                assert!(
                    routes.is_empty(),
                    "scatter_row on a round with no row plane"
                );
                None
            }
            Cells::Rows { table, refs, .. } => {
                let at = table.len() as u32;
                table.push_row(row);
                for &r in routes {
                    let (w2, slot) = layout.unpack(r);
                    refs[w2].push((slot, at));
                }
                Some(at)
            }
            Cells::Fused { kind, shards, .. } => {
                for &r in routes {
                    let (w2, slot) = layout.unpack(r);
                    shards[w2].accumulate(slot, row, 1, kind);
                }
                None
            }
        }
    }

    /// `(records, wire bytes)` of the cell bound for `w2`: per record the
    /// shared [`row_payload_len`] framing — with its fold count for a
    /// partial, and with a count of 1 for a materialized row when
    /// `counted` — plus its destination's id as a varint.
    pub fn shipped(&self, w2: usize, counted: bool) -> (u64, u64) {
        let ids = self.layout.ids(w2);
        let addressed = |slots: &mut dyn Iterator<Item = u32>| -> usize {
            slots.map(|s| varint_len(ids[s as usize])).sum()
        };
        let (records, payload, addressed) = match &self.cells {
            Cells::None => return (0, 0),
            Cells::Rows { dim, refs, .. } => {
                let (refs, framing) = (&refs[w2], row_payload_len(*dim, counted.then_some(1)));
                (
                    refs.len(),
                    refs.len() * framing,
                    addressed(&mut refs.iter().map(|r| r.0)),
                )
            }
            Cells::Fused { shards, .. } => {
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

    /// Make sender `w`'s (possibly pooled) cells indistinguishable from
    /// fresh ones, keeping their allocations (a fused shard clears its slot
    /// index sparsely), then reserve each at `reserve` — a wave slot's
    /// fused cell for the most of the senders it hosts: a no-op once done.
    fn reset(&mut self, w: usize, wave: usize, reserve: Reserve<'_>) {
        let (layout, counts) = (self.layout, reserve.counts);
        match &mut self.cells {
            Cells::None => {}
            Cells::Rows { dim, table, refs } => {
                table.reset(*dim);
                table.reserve_exact(counts.map_or(0, |c| c.table_rows(w)) * reserve.lanes);
                for (w2, refs) in refs.iter_mut().enumerate() {
                    refs.clear();
                    refs.reserve_exact(counts.map_or(0, |c| c.refs(w, w2)));
                }
            }
            Cells::Fused { dim, shards, .. } => {
                let hosts = (w, wave, layout.n_workers());
                for (w2, sh) in shards.iter_mut().enumerate() {
                    sh.reset(*dim, layout.n_slots(w2));
                    let most = counts.map_or(0, |c| reserved_partials(c, hosts, w2));
                    sh.reserve_exact(most, reserve.lanes);
                }
            }
        }
    }

    /// Debug builds: sender `w` wrote exactly the rows `reserve` counts in
    /// each cell — so none outgrew the reservation `reset` made for it.
    fn check(&self, w: usize, reserve: Reserve<'_>) {
        let Some(counts) = reserve.counts else {
            return;
        };
        let (wrote, planned): (Vec<usize>, Vec<usize>) = match &self.cells {
            Cells::None => (Vec::new(), Vec::new()),
            Cells::Rows { table, refs, .. } => (
                refs.iter().map(Vec::len).chain([table.len()]).collect(),
                (0..refs.len())
                    .map(|w2| counts.refs(w, w2))
                    .chain([counts.table_rows(w)])
                    .collect(),
            ),
            Cells::Fused { shards, .. } => (
                shards.iter().map(FusedSlotShard::len).collect(),
                (0..shards.len()).map(|w2| counts.partials(w, w2)).collect(),
            ),
        };
        debug_assert_eq!(
            wrote, planned,
            "the row cells of sender {w} against the plan"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ConcatOut, ExchangeOut, InProcess};
    use inferturbo_common::rows::FusedAggregator;
    use inferturbo_common::Xoshiro256;

    /// A transport that asks for bytes and merges in process: the barrier
    /// hands it every plane, exactly as it hands a worker process.
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

    /// Every record a destination was told of, sorted.
    #[derive(Default)]
    struct Seen(Vec<(u32, u32)>);

    impl Tally for Seen {
        fn record(&mut self, slot: u32, count: u32) {
            self.0.push((slot, count));
        }
    }

    /// What each sender scatters: `(routes, row)` in emission order.
    type Spans = Vec<Vec<(Vec<Route>, Vec<f32>)>>;

    /// One draw: 1–4 workers, each a sender and a destination, holding
    /// the 0–12 drawn vertices where they hash (so some hold none); each
    /// sender scatters 0–5 rows of 1–3 lanes over spans of 0–4 routes.
    /// Lanes come from a pool heavy in `-0.0`, `0.0` and NaN, so first
    /// partials carry both.
    fn draw(seed: u64) -> (Layout, usize, Spans) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let workers = rng.range_u64(1, 5) as usize;
        let ids: Vec<u64> = (0..rng.index(13) as u64).collect();
        let layout = Layout::planned(workers, ids.iter().map(|&id| (id, &[][..]))).unwrap();
        let dim = rng.range_u64(1, 4) as usize;
        let lanes = [-0.0, 0.0, f32::NAN, 1.5, -2.25, f32::INFINITY, 3.0e-39];
        let spans = (0..workers)
            .map(|_| {
                let rows = if ids.is_empty() || rng.chance(0.25) {
                    0
                } else {
                    rng.index(6)
                };
                (0..rows)
                    .map(|_| {
                        let routes = (0..rng.index(5))
                            .map(|_| layout.resolve(ids[rng.index(ids.len())]).unwrap())
                            .collect();
                        let row = (0..dim)
                            .map(|_| match rng.index(lanes.len() + 1) {
                                i if i < lanes.len() => lanes[i],
                                _ => rng.next_f32() * 8.0 - 4.0,
                            })
                            .collect();
                        (routes, row)
                    })
                    .collect()
            })
            .collect();
        (layout, dim, spans)
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// Per slot of an inbox: its fold count (materialized: its row count)
    /// and the bits of its rows end to end.
    fn inbox_bits(cols: &mut MergedCols, n_slots: usize) -> Vec<(u32, Vec<u32>)> {
        (0..n_slots)
            .map(|s| match cols {
                MergedCols::None => (0, Vec::new()),
                MergedCols::Rows(arena) => {
                    let rows = arena.rows(s).unwrap();
                    (rows.len() as u32, bits(&rows.to_vec()))
                }
                MergedCols::Fused(fused) => (fused.count(s), bits(fused.row(s).unwrap())),
            })
            .collect()
    }

    /// The grid the test builds by hand, `[sender][destination]`: each
    /// sender's rows packed per route, or folded per slot copy-on-first.
    fn by_hand(
        layout: &Layout,
        dim: usize,
        spans: &Spans,
        fold: Option<&AggKind>,
    ) -> Vec<Vec<(RowShard, FusedSlotShard)>> {
        let n = layout.n_workers();
        spans
            .iter()
            .map(|sent| {
                let mut cells: Vec<(RowShard, FusedSlotShard)> = (0..n)
                    .map(|w2| {
                        (
                            RowShard::new(dim),
                            FusedSlotShard::new(dim, layout.n_slots(w2)),
                        )
                    })
                    .collect();
                for (routes, row) in sent {
                    for &r in routes {
                        let (w2, slot) = layout.unpack(r);
                        cells[w2].0.push(slot, row);
                        if let Some(kind) = fold {
                            cells[w2].1.accumulate(slot, row, 1, kind);
                        }
                    }
                }
                cells
            })
            .collect()
    }

    /// The merge written out: per slot, rows in ascending sender and then
    /// emission order — or, fused, each sender's partial (its rows folded
    /// copy-on-first) folded the same way across senders.
    fn oracle(
        layout: &Layout,
        dim: usize,
        spans: &Spans,
        fold: Option<&AggKind>,
    ) -> Vec<Vec<(u32, Vec<u32>)>> {
        (0..layout.n_workers())
            .map(|w2| {
                (0..layout.n_slots(w2) as u32)
                    .map(|slot| {
                        let mut rows: Vec<f32> = Vec::new();
                        let (mut acc, mut count) = (vec![0.0; dim], 0u32);
                        for sent in spans {
                            let (mut partial, mut n) = (vec![0.0; dim], 0u32);
                            for (routes, row) in sent {
                                for _ in routes.iter().filter(|&&r| layout.unpack(r) == (w2, slot))
                                {
                                    rows.extend_from_slice(row);
                                    match (fold, n) {
                                        (Some(kind), 1..) => kind.accumulate(&mut partial, row),
                                        _ => partial.copy_from_slice(row),
                                    }
                                    n += 1;
                                }
                            }
                            match (fold, n, count) {
                                (_, 0, _) => {}
                                (Some(kind), _, 1..) => kind.accumulate(&mut acc, &partial),
                                _ => acc.copy_from_slice(&partial),
                            }
                            count += n;
                        }
                        match fold {
                            Some(kind) if count == 0 => (0, bits(&vec![kind.identity(); dim])),
                            Some(_) => (count, bits(&acc)),
                            None => (count, bits(&rows)),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The wave merge is the one merge, on both planes: whatever the wave
    /// size (1 to every sender, threads to match), whichever transport and
    /// whichever hand-off, every destination's sealed inbox has the bits
    /// of the merge written out here. Fused (sum — mean's fold too, the
    /// count divides later — and max), that is `FusedRows::merge` of the
    /// senders' shards; materialized, rows sealed from references into the
    /// senders' tables ([`RowArena::seal_refs`]) equal
    /// [`RowArena::seal`] of the same rows packed per (sender,
    /// destination). And every destination's tally is told each record
    /// once, with its fold count.
    #[test]
    fn prop_the_wave_merge_is_fused_rows_merge() {
        let planes = [
            ("rows", None),
            ("sum", Some(AggKind::Sum)),
            ("max", Some(AggKind::Max)),
        ];
        let transports: [&dyn Transport; 2] = [&InProcess, &Packing];
        for case in 0..300u64 {
            let (layout, dim, spans) = draw(case);
            let n = layout.n_workers();
            for (name, fold) in planes {
                let failed =
                    |what: &str| format!("case {case} ({name}, {n} workers, dim {dim}): {what}");
                let expected = oracle(&layout, dim, &spans, fold.as_ref());
                let hand = by_hand(&layout, dim, &spans, fold.as_ref());
                let mut tallied: Vec<Vec<(u32, u32)>> = (0..n)
                    .map(|w2| {
                        let cells = hand.iter().map(|sender| &sender[w2]);
                        let mut seen: Vec<(u32, u32)> = match fold {
                            Some(_) => cells
                                .flat_map(|c| {
                                    c.1.keys.iter().copied().zip(c.1.counts.iter().copied())
                                })
                                .collect(),
                            None => cells
                                .flat_map(|c| c.0.slots.iter().map(|&s| (s, 1)))
                                .collect(),
                        };
                        seen.sort_unstable();
                        seen
                    })
                    .collect();
                for (w2, expected) in expected.iter().enumerate() {
                    let n_slots = layout.n_slots(w2);
                    let mut direct = match &fold {
                        Some(kind) => {
                            let shards: Vec<FusedSlotShard> = hand
                                .iter()
                                .map(|s| {
                                    let mut sh = FusedSlotShard::new(dim, n_slots);
                                    for (i, &slot) in s[w2].1.keys.iter().enumerate() {
                                        sh.accumulate(
                                            slot,
                                            s[w2].1.rows.row(i),
                                            s[w2].1.counts[i],
                                            kind,
                                        );
                                    }
                                    sh
                                })
                                .collect();
                            MergedCols::Fused(
                                FusedRows::merge(dim, n_slots, &shards, kind, None).unwrap(),
                            )
                        }
                        None => {
                            let shards: Vec<RowShard> =
                                hand.iter().map(|s| s[w2].0.clone()).collect();
                            MergedCols::Rows(RowArena::seal(dim, n_slots, &shards, None).unwrap())
                        }
                    };
                    assert_eq!(
                        &inbox_bits(&mut direct, n_slots),
                        expected,
                        "{}",
                        failed(&format!("the direct merge, destination {w2}"))
                    );
                }
                for transport in transports {
                    for concat in [false, true] {
                        for wave in 1..=n {
                            let mut pool = GridPool::default();
                            let sealed = Parallelism::with(wave, || {
                                let plane = RowPlane { dim, fold };
                                let mut barrier = RowBarrier::open(
                                    Some(plane),
                                    &mut pool,
                                    &layout,
                                    (transport, None),
                                    Reserve::default(),
                                    |_| Seen::default(),
                                );
                                let done = barrier.compute(vec![(); n], |w, (), row| {
                                    for (routes, r) in &spans[w] {
                                        row.scatter_row(routes, r);
                                    }
                                    Ok(())
                                });
                                assert!(done.iter().all(Result::is_ok));
                                if concat {
                                    barrier.exchange_concat(vec![None; n]).unwrap();
                                } else {
                                    barrier
                                        .exchange(0, None, (0..n).map(|_| None).collect())
                                        .unwrap();
                                }
                                barrier.seal(&mut pool).unwrap()
                            });
                            for (w2, (mut cols, mut seen)) in sealed.into_iter().enumerate() {
                                let what = format!(
                                    "{}, {}, waves of {wave}, destination {w2}",
                                    transport.name(),
                                    if concat { "concat" } else { "exchange" }
                                );
                                assert_eq!(
                                    inbox_bits(&mut cols, layout.n_slots(w2)),
                                    expected[w2],
                                    "{}",
                                    failed(&what)
                                );
                                // What came back merged holds no record for the tally.
                                if !transport.needs_bytes() || concat {
                                    seen.0.sort_unstable();
                                    assert_eq!(
                                        seen.0,
                                        tallied[w2],
                                        "{}",
                                        failed(&format!("tally, {what}"))
                                    );
                                }
                            }
                        }
                    }
                }
                tallied.clear();
            }
        }
    }

    /// A fused sender folds every row bound for one slot into that slot's
    /// one partial, copy-on-first — a lone `-0.0` survives, which folding
    /// into the identity would not keep — each destination's cell in
    /// first-touch order; an unfused sender writes each row once into its
    /// table and references it from every route's cell, in emission order.
    #[test]
    fn a_fused_sink_folds_each_slot_copy_on_first() {
        let layout = Layout::planned(2, (0..6u64).map(|k| (k, &[][..]))).unwrap();
        let at = |k: u64| layout.resolve(k).unwrap();
        for fold in [Some(AggKind::Sum), None] {
            let fused = fold.is_some();
            let mut pool = GridPool::default();
            let mut barrier: RowBarrier<'_> = Parallelism::with(1, || {
                let plane = RowPlane { dim: 2, fold };
                RowBarrier::open(
                    Some(plane),
                    &mut pool,
                    &layout,
                    (&Packing, None),
                    Reserve::default(),
                    |_| (),
                )
            });
            let tables = barrier.compute(vec![(); 2], |w, (), row| {
                if w == 0 {
                    row.scatter_row(&[at(4), at(1)], &[1.0, 2.0]);
                    row.scatter_row(&[at(5)], &[-0.0, 1.0]);
                    row.scatter_row(&[at(1), at(4)], &[3.0, 4.0]);
                }
                Ok(())
            });
            assert!(tables.iter().all(Result::is_ok));
            // Per destination worker: (slot, count, row bits) in cell order.
            let mut expected: Vec<Vec<(u32, u32, Vec<u32>)>> = vec![Vec::new(); 2];
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
                match cell.iter_mut().find(|e| fused && e.0 == slot) {
                    Some(e) => {
                        e.1 += 1;
                        let acc: Vec<f32> = e.2.iter().map(|&b| f32::from_bits(b)).collect();
                        e.2 = bits(&[acc[0] + row[0], acc[1] + row[1]]);
                    }
                    None => cell.push((slot, 1, bits(&row))),
                }
            }
            for (d, expected) in expected.iter().enumerate() {
                let got: Vec<(u32, u32, Vec<u32>)> = match &barrier.grid {
                    Grid::Fused { shards, .. } => {
                        let sh = &shards[0][d];
                        (0..sh.len())
                            .map(|i| (sh.keys[i], sh.counts[i], bits(sh.rows.row(i))))
                            .collect()
                    }
                    Grid::Rows { tables, refs } => {
                        let table = &tables[0];
                        refs[0][d]
                            .iter()
                            .map(|&(slot, at)| (slot, 1, bits(table.row(at as usize))))
                            .collect()
                    }
                    Grid::None => Vec::new(),
                };
                assert_eq!(&got, expected, "fused={fused} destination {d}");
            }
            if !fused {
                assert_eq!(
                    barrier.tables()[0].len(),
                    3,
                    "one table row per scatter, not per route"
                );
            }
            barrier.exchange_concat(vec![None, None]).unwrap();
            barrier.seal(&mut pool).unwrap();
        }
    }
}
