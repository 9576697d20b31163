//! The columnar message plane: flat `f32` row buffers shared by the Pregel
//! and MapReduce shuffles.
//!
//! Most GNN traffic is fixed-width: a layer's `apply_edge` output is always
//! `msg_dim` floats. Boxing each such row in a per-message heap object (a
//! `Vec<f32>` inside an enum) costs one allocation per edge per layer —
//! exactly the overhead the paper's shuffle-bound analysis says dominates
//! full-graph inference. This module provides the allocation-free
//! alternative: rows live contiguously in [`RowBlock`]s, move between
//! workers as flat `memcpy`s, and — when the step's aggregator is
//! associative — are **fused** into per-destination accumulator rows at the
//! sender ([`FusedSlotShard`]), shrinking shuffle volume and peak memory
//! from O(E·d) to O(V·d).
//!
//! # Determinism contract
//!
//! The plane follows `crate::par`'s rules exactly:
//!
//! - [`RowArena::seal`] scatters shards in ascending sender order, each
//!   shard in emission order — the delivery order of a serial sender loop,
//!   defined once in [`seal_order`]; [`RowArena::seal_refs`] puts the
//!   same order on `(sender, table row)` references into the senders'
//!   [`RowTable`]s, so a row written once per sender reaches every
//!   destination slot without a copy;
//! - [`FusedSlotShard`] folds a sender's rows per destination slot in
//!   emission order with **copy-on-first** semantics (the first row is
//!   copied, not folded into an identity), so a fused partial is bit-equal
//!   to a serial front-to-back fold of that sender's rows;
//! - the destination merge folds sender partials per slot in ascending
//!   sender order, again copy-on-first, one [`merge_partial`] step per
//!   partial: [`FusedRows::open`], one [`FusedFold::fold`] per sender,
//!   [`FusedFold::seal`] — all at once ([`FusedRows::merge`]) or a batch
//!   of senders at a time, with the same result.
//!
//! A transport that merges on the far side of a process boundary reuses
//! [`seal_order`] and [`merge_partial`] rather than restating them.
//!
//! Together these fix every `f32` operation's position, so the fused path
//! is bit-identical for every thread count, transport and spill budget at
//! a given worker count.
//!
//! # Out-of-core spilling
//!
//! Both inter-superstep inbox stores — the materialized [`RowArena`] and
//! the merged fused accumulators ([`FusedRows`]) — page through
//! [`SpillableRows`] when they spill (a reference arena over budget
//! streams its rows there from the tables): a flat `f32` row store that,
//! under a per-worker [`SpillPolicy`] byte budget, pages its rows to a
//! temp file with plain `std::fs` (rows are fixed-width and
//! position-addressed, so a page is a seek + read) and keeps only a
//! bounded window resident. Consumers drain slots in ascending order, so
//! the window streams forward through the file exactly once per
//! superstep.
//!
//! **Spill determinism contract**: spilling never changes a bit. All
//! folding (scatter order, copy-on-first, ascending-sender merges) happens
//! *before* rows reach the store, and `f32` lanes round-trip the file
//! through their exact IEEE-754 bit patterns (`to_le_bytes`/
//! `from_le_bytes`), so a spilled run is bit-identical to the unconstrained
//! in-memory run for every budget, worker count, and thread count. Only
//! the *residency* accounting changes: `resident_bytes()` reports the
//! bounded window (plus always-resident offsets/counts) and
//! `spilled_bytes()` reports what lives on disk — the two planes engines
//! and plans report separately.

use crate::codec::{varint_len, Decode, Encode, WireReader, WireWriter};
use crate::{Error, Result};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wire length of one columnar row record's payload, shared by both
/// engines so their `message_bytes` accounting stays directly comparable:
/// framed like a legacy raw-embedding message (`tag + varint(dim) +
/// dim·f32`), plus a fold-count varint when the row is a fused partial.
/// Callers add their own addressing (destination varint, shuffle record
/// overhead).
pub fn row_payload_len(dim: usize, count: Option<u32>) -> usize {
    1 + varint_len(dim as u64) + dim * 4 + count.map_or(0, |c| varint_len(c as u64))
}

/// Uniquifies spill file names within a process (workers seal in
/// parallel; supersteps reuse nothing).
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Bytes per `write_all` when a store spills.
const SPILL_BLOCK_BYTES: usize = 1 << 16;

/// Out-of-core configuration for one worker's inbox stores: where spill
/// files go and how many bytes of row data may stay resident per store.
///
/// The budget is a *soft* target: a single slot whose rows exceed it still
/// loads in full (the window grows for that read), and the always-resident
/// metadata (offsets, counts) is charged on top. Offsets/counts are 4
/// bytes per slot versus `4·dim` per row, so the metadata is never the
/// term that breaks a memory cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillPolicy {
    /// Directory spill files are created in (created on demand; files are
    /// removed when their store drops).
    pub dir: PathBuf,
    /// Resident byte budget per backing store (per worker, per plane).
    pub budget_bytes: u64,
}

impl SpillPolicy {
    pub fn new(dir: impl Into<PathBuf>, budget_bytes: u64) -> Self {
        SpillPolicy {
            dir: dir.into(),
            budget_bytes,
        }
    }
}

/// An open spill file plus its path; the path is unlinked when the last
/// handle drops. Shared (`Arc`) between a live store and its checkpoint
/// snapshots — sealed spill data is immutable, so snapshots read the same
/// bytes through their own windows instead of rewriting the file.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    handle: std::fs::File,
}

impl SpillFile {
    /// Contextualise an I/O failure with the file path and the operation —
    /// an injected or real disk fault must be diagnosable from the error
    /// alone.
    fn read_err(&self, e: std::io::Error) -> Error {
        Error::Io(format!(
            "spill windowed read-back failed at {}: {e}",
            self.path.display()
        ))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn write_err(path: &Path, e: std::io::Error) -> Error {
    Error::Io(format!("spill write-out failed at {}: {e}", path.display()))
}

/// The policy a store of `lanes` floats of width `dim` spills under: the
/// armed one, when the rows' bytes exceed its budget.
fn spill_target(spill: Option<&SpillPolicy>, dim: usize, lanes: usize) -> Option<&SpillPolicy> {
    spill.filter(|p| dim > 0 && (lanes * 4) as u64 > p.budget_bytes)
}

/// How a [`SpillableRows`] holds its data: fully in memory, or on disk
/// with a bounded resident window.
#[derive(Debug)]
enum RowStore {
    Resident(Vec<f32>),
    Spilled {
        file: Arc<SpillFile>,
        /// Currently resident rows `[win_start, win_start + win_len)`.
        window: Vec<f32>,
        /// Reused byte staging buffer for window loads (allocated once,
        /// not per reload — reloads happen per slot in the drain loop).
        scratch: Vec<u8>,
        win_start: usize,
        win_len: usize,
        /// Budgeted window size in rows (≥ 1).
        win_cap: usize,
        /// Largest window the drain can ever hold, in rows — the modeled
        /// residency. Seeded at construction with the caller-declared
        /// largest single read (`max_read_rows`), so the memory model
        /// covers an oversized slot *before* the drain reaches it, and
        /// raised further if an even larger read actually happens.
        high_water: usize,
    },
}

/// A flat store of fixed-width `f32` rows that can live out of core.
///
/// Built from a fully-folded flat buffer (sealing/merging happens before
/// rows reach the store — see the module docs' spill determinism
/// contract). Under a [`SpillPolicy`] whose budget the buffer exceeds, the
/// rows are written to a temp file once and read back through a bounded
/// window; otherwise the buffer stays resident and reads are plain
/// slices. Reads are bit-identical in both modes.
#[derive(Debug)]
pub struct SpillableRows {
    dim: usize,
    n_rows: usize,
    store: RowStore,
}

impl SpillableRows {
    /// A fully resident store (no spill policy, or the data fit the
    /// budget).
    pub fn resident(dim: usize, data: Vec<f32>) -> Self {
        let n_rows = data.len().checked_div(dim).unwrap_or(0);
        SpillableRows {
            dim,
            n_rows,
            store: RowStore::Resident(data),
        }
    }

    /// Wrap `data`, spilling it to a file under `spill.dir` when its bytes
    /// exceed `spill.budget_bytes`: one sequential write of 64 KiB blocks,
    /// then a resident window sized to the budget (at least one row).
    ///
    /// `max_read_rows` declares the largest single [`SpillableRows::rows`]
    /// range the consumer will request (e.g. the fattest slot of an
    /// arena). The window must grow to cover such a read, so it is folded
    /// into the residency high-water up front — the memory model then
    /// charges the worst-case window at seal time instead of discovering
    /// it mid-drain (the budget is a soft target; see [`SpillPolicy`]).
    ///
    /// Note the build-side transient: `data` is the fully-folded flat
    /// buffer, so the *host* process briefly holds the whole thing before
    /// the spill write. The budget governs the simulated per-worker
    /// residency model (what `check_memory`, estimates, and admission
    /// gate on). An arena whose rows already lie in row tables streams
    /// them to the file instead and holds no such buffer
    /// ([`RowArena::seal_refs`]).
    pub fn new(
        dim: usize,
        data: Vec<f32>,
        spill: Option<&SpillPolicy>,
        max_read_rows: usize,
    ) -> Result<Self> {
        match spill_target(spill, dim, data.len()) {
            Some(policy) => {
                let n_rows = data.len() / dim;
                Self::spilled(dim, n_rows, [&data[..]], policy, max_read_rows)
            }
            None => Ok(SpillableRows::resident(dim, data)),
        }
    }

    /// Write `n_rows` rows of `dim` lanes to a file under `policy.dir` and
    /// keep only a window of them resident. `lanes` yields the rows' lanes
    /// front to back in runs of any length (one flat buffer, or one row at
    /// a time from wherever the rows lie) — nothing is gathered first. The
    /// write is one sequential pass: lanes are converted to their
    /// little-endian bytes a 64 KiB block at a time and each block goes out
    /// in one `write_all`. The resident window is sized to the budget (at
    /// least one row); `max_read_rows` is as for [`SpillableRows::new`].
    fn spilled<'r>(
        dim: usize,
        n_rows: usize,
        lanes: impl IntoIterator<Item = &'r [f32]>,
        policy: &SpillPolicy,
        max_read_rows: usize,
    ) -> Result<Self> {
        std::fs::create_dir_all(&policy.dir).map_err(|e| write_err(&policy.dir, e))?;
        let path = policy.dir.join(format!(
            "inferturbo-spill-{}-{}.rows",
            std::process::id(),
            SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let handle = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| write_err(&path, e))?;
        // From here on the file exists: wrap it so any failed write still
        // unlinks it on drop.
        let file = Arc::new(SpillFile { path, handle });
        // Exact IEEE-754 bit patterns on disk: the read-back path is
        // bit-identical to never having spilled.
        let mut block = vec![0u8; SPILL_BLOCK_BYTES.min(n_rows * dim * 4).max(4)];
        let mut fill = 0;
        let flush = |bytes: &[u8]| {
            (&file.handle)
                .write_all(bytes)
                .map_err(|e| write_err(&file.path, e))
        };
        for mut run in lanes {
            while !run.is_empty() {
                let take = run.len().min((block.len() - fill) / 4);
                let (now, rest) = run.split_at(take);
                for (dst, x) in block[fill..fill + take * 4].chunks_exact_mut(4).zip(now) {
                    dst.copy_from_slice(&x.to_le_bytes());
                }
                fill += take * 4;
                run = rest;
                if fill == block.len() {
                    flush(&block)?;
                    fill = 0;
                }
            }
        }
        flush(&block[..fill])?;
        let win_cap = ((policy.budget_bytes / 4) as usize / dim).max(1);
        Ok(SpillableRows {
            dim,
            n_rows,
            store: RowStore::Spilled {
                file,
                window: Vec::new(),
                scratch: Vec::new(),
                win_start: 0,
                win_len: 0,
                win_cap,
                high_water: win_cap.max(max_read_rows).min(n_rows),
            },
        })
    }

    /// An independent logical copy for checkpointing. Resident data is
    /// cloned; spilled data *shares* the immutable spill file (`Arc`) with
    /// a fresh, empty window — the checkpoint reuses the already-written
    /// file instead of copying it, and the file survives until the last
    /// sharer drops. Reads from a snapshot are bit-identical to reads from
    /// the original.
    pub fn snapshot(&self) -> SpillableRows {
        let store = match &self.store {
            RowStore::Resident(d) => RowStore::Resident(d.clone()),
            RowStore::Spilled {
                file,
                win_cap,
                high_water,
                ..
            } => RowStore::Spilled {
                file: Arc::clone(file),
                window: Vec::new(),
                scratch: Vec::new(),
                win_start: 0,
                win_len: 0,
                win_cap: *win_cap,
                high_water: *high_water,
            },
        };
        SpillableRows {
            dim: self.dim,
            n_rows: self.n_rows,
            store,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Unwrap a fully resident store's flat data; `None` when spilled.
    /// The wire path sends resident data only — merged results cross a
    /// process boundary *before* the parent-side spill decision, so a
    /// spilled store here means a protocol bug, not a recoverable state.
    pub fn into_resident(self) -> Option<Vec<f32>> {
        match self.store {
            RowStore::Resident(d) => Some(d),
            RowStore::Spilled { .. } => None,
        }
    }

    /// Total rows in the store (resident + spilled).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Modeled resident bytes of the row data: everything when in memory,
    /// the (high-water) window when spilled.
    pub fn resident_bytes(&self) -> u64 {
        match &self.store {
            RowStore::Resident(d) => (d.len() * 4) as u64,
            RowStore::Spilled { high_water, .. } => (*high_water * self.dim * 4) as u64,
        }
    }

    /// Bytes living in the spill file (0 when resident).
    pub fn spilled_bytes(&self) -> u64 {
        match &self.store {
            RowStore::Resident(_) => 0,
            RowStore::Spilled { .. } => (self.n_rows * self.dim * 4) as u64,
        }
    }

    /// The flat rows `[lo, hi)` (`(hi - lo) * dim` floats). When spilled,
    /// loads the covering window from disk if it is not already resident;
    /// sequential ascending access streams the file once.
    pub fn rows(&mut self, lo: usize, hi: usize) -> Result<&[f32]> {
        debug_assert!(lo <= hi && hi <= self.n_rows, "row range out of bounds");
        if lo == hi {
            return Ok(&[]);
        }
        let dim = self.dim;
        match &mut self.store {
            RowStore::Resident(data) => Ok(&data[lo * dim..hi * dim]),
            RowStore::Spilled {
                file,
                window,
                scratch,
                win_start,
                win_len,
                win_cap,
                high_water,
                ..
            } => {
                let need = hi - lo;
                if lo < *win_start || hi > *win_start + *win_len {
                    // Load a fresh window at `lo`: budget-sized, grown to
                    // cover an oversized single request, clipped at EOF.
                    // `window` and `scratch` keep their allocations across
                    // reloads — the drain loop reloads once per window, so
                    // steady-state paging allocates nothing.
                    let load = need.max(*win_cap).min(self.n_rows - lo);
                    window.clear();
                    window.resize(load * dim, 0.0);
                    (&file.handle)
                        .seek(SeekFrom::Start((lo * dim * 4) as u64))
                        .map_err(|e| file.read_err(e))?;
                    scratch.clear();
                    scratch.resize(load * dim * 4, 0);
                    (&file.handle)
                        .read_exact(scratch)
                        .map_err(|e| file.read_err(e))?;
                    for (x, ch) in window.iter_mut().zip(scratch.chunks_exact(4)) {
                        *x = f32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
                    }
                    *win_start = lo;
                    *win_len = load;
                    *high_water = (*high_water).max(load);
                }
                let off = (lo - *win_start) * dim;
                Ok(&window[off..off + need * dim])
            }
        }
    }
}

/// Guard for the `u32` offset/cursor space of one worker's arena. At
/// huge-graph `E·d` scale this must be a typed, catchable error on the
/// engine result path — a release build must never wrap the counting
/// scatter's cursors into silent row loss.
fn check_u32_row_capacity(total_rows: usize) -> Result<()> {
    if total_rows > u32::MAX as usize {
        return Err(Error::Capacity(format!(
            "row arena overflow: {total_rows} rows for one worker exceed the u32 offset space \
             ({} max); shard the graph across more workers",
            u32::MAX
        )));
    }
    Ok(())
}

/// Declares that a step's messages are fixed-width `f32` rows. A vertex
/// program (or batch kernel) returning one of these opts the step into the
/// columnar plane; variable-width messages (broadcast refs, control
/// records) ride the typed plane alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageLayout {
    /// Row width in `f32` lanes. Must match every row sent that step.
    pub dim: usize,
}

/// A commutative + associative lane-wise fold over fixed-width rows — the
/// engines' sender-side combiner. When a step provides one, the engine
/// fuses gather into scatter: senders accumulate rows per destination
/// instead of materialising one row per edge.
///
/// Implementations must be pure lane-wise folds (`acc[i] ⊕= row[i]`): the
/// engine relies on fold order per lane being the only source of float
/// variation, and pins that order via the determinism contract above.
pub trait FusedAggregator: Send + Sync {
    /// The identity element accumulator lanes are pre-filled with (e.g.
    /// `0.0` for sum, `-inf` for max). Because accumulation is
    /// copy-on-first, the identity never reaches results — it only fills
    /// slots that receive no messages, which consumers detect via a zero
    /// count.
    fn identity(&self) -> f32;

    /// Fold `row` into `acc` lane-wise. `acc.len() == row.len()`.
    fn accumulate(&self, acc: &mut [f32], row: &[f32]);

    /// The wire-encodable description of this fold, if it has one.
    ///
    /// A fused exchange that crosses a process boundary cannot ship the
    /// aggregator itself — only a closed set of lane-wise folds
    /// ([`AggKind`]) travels on the wire, and the remote merge replays the
    /// fold from that tag. Returning `Some(kind)` asserts that `kind`'s
    /// fold is **bit-identical** to this aggregator's `accumulate` for
    /// every input (each `AggKind` fold is a per-lane-independent
    /// operation, so unrolling or vectorisation cannot change its bits).
    /// The default `None` keeps custom aggregators working everywhere:
    /// a transport that cannot encode the fold merges fused partials
    /// locally instead (see `inferturbo_cluster::transport`).
    fn wire_kind(&self) -> Option<AggKind> {
        None
    }
}

/// The closed set of lane-wise folds a fused exchange can name on the
/// wire. Each variant is a per-lane-independent operation whose result is
/// bit-identical to the engine-side kernels it stands in for:
///
/// - [`AggKind::Sum`]: `acc[i] += row[i]` — bit-equal to
///   `row_axpy(acc, row, 1.0)` (multiplying by `1.0` is the identity on
///   every IEEE-754 value the planes carry);
/// - [`AggKind::Max`]: `if row[i] > acc[i] { acc[i] = row[i] }` — the
///   exact tie/NaN-keeping comparison of `row_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Sum,
    Max,
}

impl Encode for AggKind {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            AggKind::Sum => 0,
            AggKind::Max => 1,
        });
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for AggKind {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(AggKind::Sum),
            1 => Ok(AggKind::Max),
            tag => Err(Error::Codec(format!("unknown AggKind tag {tag}"))),
        }
    }
}

impl FusedAggregator for AggKind {
    fn identity(&self) -> f32 {
        match self {
            AggKind::Sum => 0.0,
            AggKind::Max => f32::NEG_INFINITY,
        }
    }

    // Inlined into the engines' fused fold loops (generic over the fold,
    // instantiated in their crates): out of line it is a cross-crate call
    // per edge.
    #[inline]
    fn accumulate(&self, acc: &mut [f32], row: &[f32]) {
        debug_assert_eq!(acc.len(), row.len());
        match self {
            AggKind::Sum => {
                for (a, &b) in acc.iter_mut().zip(row) {
                    *a += b;
                }
            }
            AggKind::Max => {
                for (a, &b) in acc.iter_mut().zip(row) {
                    if b > *a {
                        *a = b;
                    }
                }
            }
        }
    }

    fn wire_kind(&self) -> Option<AggKind> {
        Some(*self)
    }
}

/// A flat row-major spool of fixed-width rows — the storage unit of the
/// columnar plane. Pushing appends `dim` floats; no per-row allocation.
#[derive(Debug, Clone, Default)]
pub struct RowBlock {
    dim: usize,
    data: Vec<f32>,
}

impl RowBlock {
    pub fn new(dim: usize) -> Self {
        RowBlock {
            dim,
            data: Vec::new(),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    // `push_row` / `row` / `row_mut` sit in the engines' per-edge loops in
    // other crates: without the hint each is an indirect call per edge.
    #[inline]
    pub fn push_row(&mut self, row: &[f32]) {
        debug_assert_eq!(row.len(), self.dim, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Append every row of `other` in order — one flat `memcpy`, the
    /// barrier-merge fast path.
    pub fn append(&mut self, other: &RowBlock) {
        debug_assert_eq!(self.dim, other.dim, "append width mismatch");
        self.data.extend_from_slice(&other.data);
    }

    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Clear and adopt a (possibly new) row width, keeping the allocation —
    /// the scratch-pool reuse path.
    pub fn reset(&mut self, dim: usize) {
        self.data.clear();
        self.dim = dim;
    }

    /// Make room for `lanes` more lanes, exactly: a block sized once from a
    /// known row count never grows as it is written.
    pub fn reserve_exact(&mut self, lanes: usize) {
        self.data.reserve_exact(lanes);
    }

    /// Lanes the block holds without growing.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Rebuild a block from its flat parts (the wire-decode path). `data`
    /// must hold a whole number of `dim`-wide rows.
    pub fn from_parts(dim: usize, data: Vec<f32>) -> Result<RowBlock> {
        if dim == 0 && !data.is_empty() {
            return Err(Error::Codec("row block with dim 0 carries data".into()));
        }
        if dim != 0 && !data.len().is_multiple_of(dim) {
            return Err(Error::Codec(format!(
                "row block data ({} floats) is not a multiple of dim {dim}",
                data.len()
            )));
        }
        Ok(RowBlock { dim, data })
    }
}

/// One sender's columnar outbox shard for one destination worker:
/// destination slots plus their rows, in emission order.
#[derive(Debug, Clone)]
pub struct RowShard {
    pub slots: Vec<u32>,
    pub rows: RowBlock,
}

impl RowShard {
    pub fn new(dim: usize) -> Self {
        RowShard {
            slots: Vec::new(),
            rows: RowBlock::new(dim),
        }
    }

    // Both engines' per-edge loops in other crates call it.
    #[inline]
    pub fn push(&mut self, slot: u32, row: &[f32]) {
        self.slots.push(slot);
        self.rows.push_row(row);
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Wire framing for one sender's materialized shard: `varint dim`,
/// `varint n`, `n` destination-slot varints, then `n·dim` raw-bit `f32`
/// lanes in exact IEEE-754 little-endian bit patterns. The receiver seals
/// the shards in [`seal_order`] by copying each row's lane bytes as they
/// are, so the merged rows are bit-identical to the sent ones.
impl Encode for RowShard {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.rows.dim() as u64);
        w.put_varint(self.slots.len() as u64);
        for &s in &self.slots {
            w.put_varint(s as u64);
        }
        w.put_f32_lanes(self.rows.data());
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.rows.dim() as u64)
            + varint_len(self.slots.len() as u64)
            + varints_len(&self.slots)
            + self.rows.data().len() * 4
    }
}

/// Total bytes of `vals` as bare varints (no count prefix).
fn varints_len(vals: &[u32]) -> usize {
    vals.iter().map(|&v| varint_len(v as u64)).sum()
}

/// Append `n · dim` f32 lanes to `out`. The lane reader validates the byte
/// budget before allocating.
pub fn decode_rows_into(
    r: &mut WireReader<'_>,
    n: usize,
    dim: usize,
    out: &mut Vec<f32>,
) -> Result<()> {
    let lanes = n
        .checked_mul(dim)
        .ok_or_else(|| Error::Codec(format!("{n}x{dim} rows overflow")))?;
    r.get_f32_lanes_into(lanes, out)
}

/// The seal order, defined once: a stable counting sort
/// ([`crate::group::counting_sort`]) by destination slot of the senders'
/// concatenation (senders ascending, each in emission order). `rows`
/// yields the `(slot, source)` of each of the `total` rows in that
/// concatenation order, every slot `< n_slots`. On return `offsets` holds
/// the `n_slots + 1` per-slot row ranges and `sources` each row's source
/// at its sealed position. Both buffers are cleared first, so callers may
/// keep them across seals.
pub fn seal_order<S: Copy + Default>(
    n_slots: usize,
    total: usize,
    rows: impl Iterator<Item = (u32, S)> + Clone,
    offsets: &mut Vec<u32>,
    sources: &mut Vec<S>,
) -> Result<()> {
    check_u32_row_capacity(total)?;
    crate::group::counting_sort(n_slots, total, rows, offsets, sources);
    Ok(())
}

/// A sender worker's row table for one superstep: one row per span it
/// sent, written once whatever the span's fan-out. Destinations read
/// the rows through `(sender, table row)` references and never copy them;
/// a table is shared by every inbox that lends from it and by any
/// checkpoint of those inboxes, so its owner may write it again only once
/// nothing else holds it.
pub type RowTable = Arc<RowBlock>;

/// The rows one slot of a sealed inbox lends out, in delivery order, each
/// `dim` lanes: a run of one flat buffer, or `(sender, table row)`
/// references into the senders' [`RowTable`]s. Either way every row is a
/// borrowed slice — handing them out copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct LentRows<'a> {
    dim: usize,
    src: Lent<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Lent<'a> {
    Flat(&'a [f32]),
    Refs {
        refs: &'a [(u32, u32)],
        tables: &'a [RowTable],
    },
}

impl<'a> LentRows<'a> {
    /// `data.len() / dim` rows laid end to end (none when `dim` is 0).
    pub fn flat(dim: usize, data: &'a [f32]) -> Self {
        LentRows {
            dim,
            src: Lent::Flat(data),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self.src {
            Lent::Flat(data) => data.len().checked_div(self.dim).unwrap_or(0),
            Lent::Refs { refs, .. } => refs.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` (`i < len()`), borrowed where it lies.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        match self.src {
            Lent::Flat(data) => &data[i * self.dim..(i + 1) * self.dim],
            Lent::Refs { refs, tables } => {
                let (sender, at) = refs[i];
                tables[sender as usize].row(at as usize)
            }
        }
    }

    /// The rows front to back.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [f32]> + 'a {
        let rows = *self;
        (0..rows.len()).map(move |i| rows.row(i))
    }

    /// The rows' lanes gathered end to end into one new buffer.
    pub fn to_vec(&self) -> Vec<f32> {
        self.iter().flatten().copied().collect()
    }
}

/// Rows of the fattest slot of sealed `offsets`: the largest single read
/// a slot-by-slot drain issues.
fn max_slot_rows(offsets: &[u32]) -> usize {
    offsets
        .windows(2)
        .map(|w| (w[1] - w[0]) as usize)
        .max()
        .unwrap_or(0)
}

/// A destination worker's sealed columnar inbox: slot `s`'s rows at row
/// indices `offsets[s]..offsets[s+1]` in delivery order. The row analogue
/// of the Pregel engine's typed inbox. The offsets always stay resident.
/// The rows
/// are either one flat store — what a byte-moving transport hands back,
/// paging through a [`SpillableRows`] window under a [`SpillPolicy`] — or,
/// sealed in process from the senders' [`RowTable`]s, one 8-byte
/// `(sender, table row)` reference per row ([`RowArena::seal_refs`]).
#[derive(Debug)]
pub struct RowArena {
    dim: usize,
    rows: ArenaRows,
    /// Per-slot row ranges; empty until the first seal.
    offsets: Vec<u32>,
}

#[derive(Debug)]
enum ArenaRows {
    /// The row data itself, laid out in delivery order.
    Flat(SpillableRows),
    /// `(sender, table row)` per row in delivery order, lent from the
    /// senders' tables (indexed by sender).
    Refs {
        sources: Vec<(u32, u32)>,
        tables: Arc<[RowTable]>,
    },
}

impl RowArena {
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total rows in the arena.
    pub fn n_rows(&self) -> usize {
        match &self.rows {
            ArenaRows::Flat(data) => data.n_rows(),
            ArenaRows::Refs { sources, .. } => sources.len(),
        }
    }

    /// Modelled resident bytes of the arena: offsets plus one row per
    /// delivered message (the bounded window, when spilled) — what a
    /// worker that received its rows over a network holds. An arena
    /// sealed from row tables is charged the same: the process itself
    /// holds less, 8 bytes per row plus one shared copy of each sender's
    /// row per span ([`RowArena::held_bytes`], [`RowArena::tables`]).
    pub fn resident_bytes(&self) -> u64 {
        let rows = match &self.rows {
            ArenaRows::Flat(data) => data.resident_bytes(),
            ArenaRows::Refs { sources, .. } => (sources.len() * self.dim * 4) as u64,
        };
        rows + (self.offsets.len() * 4) as u64
    }

    /// Bytes this arena holds in the process beside the offsets: its
    /// resident row data, or its 8-byte references. The row tables a
    /// reference arena lends from are shared with the other destinations
    /// and are not counted here.
    pub fn held_bytes(&self) -> u64 {
        match &self.rows {
            ArenaRows::Flat(data) => data.resident_bytes(),
            ArenaRows::Refs { sources, .. } => (sources.len() * 8) as u64,
        }
    }

    /// The row tables the arena lends from, indexed by sender (none for a
    /// flat arena).
    pub fn tables(&self) -> &[RowTable] {
        match &self.rows {
            ArenaRows::Flat(_) => &[],
            ArenaRows::Refs { tables, .. } => tables,
        }
    }

    /// Bytes of row data living in the spill file (0 when fully resident).
    pub fn spilled_bytes(&self) -> u64 {
        match &self.rows {
            ArenaRows::Flat(data) => data.spilled_bytes(),
            ArenaRows::Refs { .. } => 0,
        }
    }

    /// Number of rows pending for `slot`; 0 past the sealed range.
    pub fn count(&self, slot: usize) -> usize {
        if slot + 1 >= self.offsets.len() {
            0
        } else {
            (self.offsets[slot + 1] - self.offsets[slot]) as usize
        }
    }

    /// An independent logical copy for checkpointing: resident offsets are
    /// cloned, flat row data snapshots through [`SpillableRows::snapshot`]
    /// (spilled data shares the immutable file), references are cloned and
    /// the row tables they point into shared.
    pub fn snapshot(&self) -> RowArena {
        let rows = match &self.rows {
            ArenaRows::Flat(data) => ArenaRows::Flat(data.snapshot()),
            ArenaRows::Refs { sources, tables } => ArenaRows::Refs {
                sources: sources.clone(),
                tables: Arc::clone(tables),
            },
        };
        RowArena {
            dim: self.dim,
            rows,
            offsets: self.offsets.clone(),
        }
    }

    /// Rows pending for `slot`, in delivery order, lent where they lie.
    /// `&mut` because a spilled arena may need to page the covering window
    /// in; draining slots in ascending order streams the spill file exactly
    /// once.
    pub fn rows(&mut self, slot: usize) -> Result<LentRows<'_>> {
        // Zero-width rows hold no lanes, however many of them there are.
        if slot + 1 >= self.offsets.len() || self.dim == 0 {
            return Ok(LentRows::flat(self.dim, &[]));
        }
        let lo = self.offsets[slot] as usize;
        let hi = self.offsets[slot + 1] as usize;
        Ok(match &mut self.rows {
            ArenaRows::Flat(data) => LentRows::flat(self.dim, data.rows(lo, hi)?),
            ArenaRows::Refs { sources, tables } => LentRows {
                dim: self.dim,
                src: Lent::Refs {
                    refs: &sources[lo..hi],
                    tables,
                },
            },
        })
    }

    /// Build the arena from per-sender shards in the [`seal_order`]: a
    /// stable counting sort by slot of the shards' concatenation, shards in
    /// ascending sender order and each shard in emission order — exactly
    /// the delivery order of a serial sender loop. The scatter moves 8-byte
    /// `(sender, row)` sources, not rows; the arena is then written front
    /// to back, one append per row, never zero-filled. Under `spill`, row
    /// data beyond the budget pages to disk — spilling happens after the
    /// sort, so delivery order and bits are unaffected.
    pub fn seal(
        dim: usize,
        n_slots: usize,
        shards: &[RowShard],
        spill: Option<&SpillPolicy>,
    ) -> Result<Self> {
        let total: usize = shards.iter().map(RowShard::len).sum();
        let (mut offsets, mut sources) = (Vec::new(), Vec::new());
        let rows = shards.iter().enumerate().flat_map(|(sender, sh)| {
            sh.slots
                .iter()
                .enumerate()
                .map(move |(i, &s)| (s, (sender as u32, i as u32)))
        });
        seal_order(n_slots, total, rows, &mut offsets, &mut sources)?;
        let mut data = Vec::with_capacity(total * dim);
        for &(sender, i) in &sources {
            data.extend_from_slice(shards[sender as usize].rows.row(i as usize));
        }
        // The fattest slot bounds the largest single read the drain will
        // issue; declaring it up front makes the residency model charge
        // the worst-case window at seal time (a hub slot wider than the
        // budget still loads whole).
        let max_read = max_slot_rows(&offsets);
        Ok(RowArena {
            dim,
            rows: ArenaRows::Flat(SpillableRows::new(dim, data, spill, max_read)?),
            offsets,
        })
    }

    /// Seal an inbox whose rows stay in the senders' row tables: `refs[s]`
    /// is sender `s`'s `(slot, table row)` per row bound here, in emission
    /// order, and `tables[s]` the table those rows index. The same
    /// [`seal_order`] as [`RowArena::seal`] sorts the `(sender, table row)`
    /// references, and no row is copied: the arena lends straight from the
    /// tables. Under `spill`, when the rows exceed the budget, they are
    /// streamed in delivery order from the tables into the spill file
    /// instead, never gathered in memory — the same file, window and
    /// residency charge a flat seal of the same rows would produce.
    pub fn seal_refs(
        dim: usize,
        n_slots: usize,
        refs: &[Vec<(u32, u32)>],
        tables: Arc<[RowTable]>,
        spill: Option<&SpillPolicy>,
    ) -> Result<Self> {
        if refs.len() != tables.len() {
            return Err(Error::Internal(format!(
                "{} senders' row references against {} row tables",
                refs.len(),
                tables.len()
            )));
        }
        for table in tables.iter() {
            check_u32_row_capacity(table.len())?;
        }
        let total: usize = refs.iter().map(Vec::len).sum();
        let (mut offsets, mut sources) = (Vec::new(), Vec::new());
        let rows = refs
            .iter()
            .enumerate()
            .flat_map(|(sender, r)| r.iter().map(move |&(slot, at)| (slot, (sender as u32, at))));
        seal_order(n_slots, total, rows, &mut offsets, &mut sources)?;
        let rows = match spill_target(spill, dim, total * dim) {
            None => ArenaRows::Refs { sources, tables },
            Some(policy) => {
                let lanes = sources
                    .iter()
                    .map(|&(sender, at)| tables[sender as usize].row(at as usize));
                let max_read = max_slot_rows(&offsets);
                ArenaRows::Flat(SpillableRows::spilled(dim, total, lanes, policy, max_read)?)
            }
        };
        Ok(RowArena { dim, rows, offsets })
    }

    /// Rebuild an arena from wire parts: the sealed per-slot `offsets`
    /// (length `n_slots + 1`, monotone, starting at 0) and the flat
    /// scattered row data (`offsets.last() * dim` floats). Applies `spill`
    /// exactly like [`RowArena::seal`] — the seal happened on the other
    /// side of the wire, the residency decision happens here.
    pub fn from_parts(
        dim: usize,
        offsets: Vec<u32>,
        data: Vec<f32>,
        spill: Option<&SpillPolicy>,
    ) -> Result<Self> {
        let total = match offsets.as_slice() {
            [] => return Err(Error::Codec("row arena offsets are empty".into())),
            [first, .., last] if *first == 0 => *last as usize,
            [0] => 0,
            _ => return Err(Error::Codec("row arena offsets do not start at 0".into())),
        };
        if offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(Error::Codec("row arena offsets are not monotone".into()));
        }
        if data.len() != total * dim {
            return Err(Error::Codec(format!(
                "row arena data ({} floats) does not match {total} rows of dim {dim}",
                data.len()
            )));
        }
        let max_read = max_slot_rows(&offsets);
        Ok(RowArena {
            dim,
            rows: ArenaRows::Flat(SpillableRows::new(dim, data, spill, max_read)?),
            offsets,
        })
    }

    /// Split a sealed, fully resident arena into its wire parts
    /// (`offsets`, flat row data in delivery order) for shipping back
    /// across a process boundary; an arena sealed from row tables gathers
    /// its rows here. Fails on a spilled arena: the wire side seals without
    /// a spill policy, residency is the receiving side's decision.
    pub fn into_wire_parts(self) -> Result<(Vec<u32>, Vec<f32>)> {
        let data = match self.rows {
            ArenaRows::Flat(data) => data.into_resident().ok_or_else(|| {
                Error::Internal("cannot ship a spilled row arena over the wire".into())
            })?,
            ArenaRows::Refs { sources, tables } => sources
                .iter()
                .flat_map(|&(sender, at)| tables[sender as usize].row(at as usize))
                .copied()
                .collect(),
        };
        Ok((self.offsets, data))
    }
}

/// One sender's **fused** outbox shard for one destination worker: instead
/// of one row per message, one accumulator row per destination slot the
/// sender touched. The dense `slot → row` index trades O(n_slots) memory
/// for branch-free lookups — destination partitions are `V / workers`
/// slots, far below the hash-map's constant factors.
///
/// Accumulation is copy-on-first: the first row for a slot is copied
/// verbatim, later rows fold through the [`FusedAggregator`]. `counts`
/// tracks the number of raw messages folded per touched slot (mean
/// normalisation reads it); `keys` remembers first-touch order, which is
/// the shard's flush/merge order.
pub struct FusedSlotShard {
    dim: usize,
    /// slot → index into `keys`/`counts`/`rows`; `u32::MAX` = untouched.
    index: Vec<u32>,
    pub keys: Vec<u32>,
    pub counts: Vec<u32>,
    pub rows: RowBlock,
}

impl FusedSlotShard {
    pub fn new(dim: usize, n_slots: usize) -> Self {
        FusedSlotShard {
            dim,
            index: vec![u32::MAX; n_slots],
            keys: Vec::new(),
            counts: Vec::new(),
            rows: RowBlock::new(dim),
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Restore the shard to the state `FusedSlotShard::new(dim, n_slots)`
    /// would produce, keeping every allocation. Touched index entries are
    /// cleared sparsely through `keys` — O(touched), not O(n_slots) — which
    /// is the whole point of pooling these shards across supersteps: a
    /// fresh shard pays a dense `u32` fill per (sender × destination) every
    /// superstep, O(W·V) across a worker set.
    pub fn reset(&mut self, dim: usize, n_slots: usize) {
        for &k in &self.keys {
            self.index[k as usize] = u32::MAX;
        }
        self.keys.clear();
        self.counts.clear();
        self.rows.reset(dim);
        self.dim = dim;
        if self.index.len() < n_slots {
            self.index.resize(n_slots, u32::MAX);
        }
    }

    /// Make room for `partials` more partials `dim` lanes wide, exactly
    /// (after a [`FusedSlotShard::reset`]: a shard sized once from a known
    /// partial count never grows as it folds).
    pub fn reserve_exact(&mut self, partials: usize, dim: usize) {
        self.keys.reserve_exact(partials);
        self.counts.reserve_exact(partials);
        self.rows.reserve_exact(partials * dim);
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Σ [`row_payload_len`]`(dim, Some(count))` over the shard's partials:
    /// the row framing, the same for each, once per partial plus every
    /// count's varint — what the engines' byte accounting charges a shard,
    /// without re-deriving the framing per partial.
    pub fn payload_len(&self) -> usize {
        self.keys.len() * row_payload_len(self.dim, None) + varints_len(&self.counts)
    }

    /// Fold `row` (carrying `count` raw messages) into slot's accumulator.
    #[inline]
    pub fn accumulate(
        &mut self,
        slot: u32,
        row: &[f32],
        count: u32,
        agg: &(impl FusedAggregator + ?Sized),
    ) {
        debug_assert_eq!(row.len(), self.dim);
        let at = self.index[slot as usize];
        if at == u32::MAX {
            self.index[slot as usize] = self.keys.len() as u32;
            self.keys.push(slot);
            self.counts.push(count);
            self.rows.push_row(row);
        } else {
            agg.accumulate(self.rows.row_mut(at as usize), row);
            self.counts[at as usize] += count;
        }
    }
}

/// Wire framing for one sender's fused shard: `varint dim`, `varint n`,
/// `n` first-touch key varints, `n` count varints, then `n·dim` raw-bit
/// `f32` lanes. The dense `slot → row` index is *not* shipped — it is a
/// sender-side accumulation structure; the receiver only merges, folding
/// each partial straight from the frame with [`merge_partial`].
impl Encode for FusedSlotShard {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.dim as u64);
        w.put_varint(self.keys.len() as u64);
        for &k in &self.keys {
            w.put_varint(k as u64);
        }
        for &c in &self.counts {
            w.put_varint(c as u64);
        }
        w.put_f32_lanes(self.rows.data());
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.dim as u64)
            + varint_len(self.keys.len() as u64)
            + varints_len(&self.keys)
            + varints_len(&self.counts)
            + self.rows.data().len() * 4
    }
}

/// One step of the destination merge, defined once: fold a sender's
/// partial `row` (carrying `row_count` raw messages) into a merged slot's
/// accumulator `acc` and message `count`, copy-on-first — the slot's first
/// partial is copied verbatim (a `-0.0` or a NaN survives; folding into
/// the identity would not keep either), later partials fold through `agg`.
#[inline]
pub fn merge_partial<A: FusedAggregator + ?Sized>(
    acc: &mut [f32],
    count: &mut u32,
    row: &[f32],
    row_count: u32,
    agg: &A,
) {
    if *count == 0 {
        acc.copy_from_slice(row);
    } else {
        agg.accumulate(acc, row);
    }
    *count += row_count;
}

/// A destination worker's merged fused inbox: one accumulator row per slot
/// (identity-filled), `counts[s]` raw messages folded into slot `s` (0 =
/// no messages). O(V·d) resident regardless of edge count — and under a
/// [`SpillPolicy`] even the V·d accumulators page to disk, leaving only
/// the counts (4 B/slot) plus a bounded row window resident. Built in
/// three calls — [`FusedRows::open`], a [`FusedFold::fold`] per sender,
/// [`FusedFold::seal`] — so a caller holding only some senders' shards at
/// a time (the Pregel engine's waves) folds each batch as it ends and
/// frees it; [`FusedRows::merge`] makes the same calls over a whole set.
#[derive(Debug)]
pub struct FusedRows {
    dim: usize,
    acc: SpillableRows,
    pub counts: Vec<u32>,
}

impl FusedRows {
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Resident bytes: counts plus the in-memory accumulator rows (the
    /// bounded window, when spilled).
    pub fn resident_bytes(&self) -> u64 {
        self.acc.resident_bytes() + (self.counts.len() * 4) as u64
    }

    /// Bytes of accumulator rows living in the spill file (0 when fully
    /// resident).
    pub fn spilled_bytes(&self) -> u64 {
        self.acc.spilled_bytes()
    }

    /// Raw messages folded into `slot` (0 for untouched or out-of-range
    /// slots).
    pub fn count(&self, slot: usize) -> u32 {
        self.counts.get(slot).copied().unwrap_or(0)
    }

    /// An independent logical copy for checkpointing (see
    /// [`SpillableRows::snapshot`]).
    pub fn snapshot(&self) -> FusedRows {
        FusedRows {
            dim: self.dim,
            acc: self.acc.snapshot(),
            counts: self.counts.clone(),
        }
    }

    /// Accumulator row of `slot`; an empty slice past the merged range,
    /// where the count is 0.
    /// `&mut` because a spilled store may need to page the covering window
    /// in.
    pub fn row(&mut self, slot: usize) -> Result<&[f32]> {
        if self.dim == 0 || slot >= self.acc.n_rows() {
            return Ok(&[]);
        }
        self.acc.rows(slot, slot + 1)
    }

    /// Open a destination's accumulators over `n_slots` slots: every lane
    /// `agg`'s identity, every count 0. Senders' shards then
    /// [`FusedFold::fold`] into it in ascending sender order, as many at a
    /// time as the caller holds, and [`FusedFold::seal`] makes the inbox.
    pub fn open<A: FusedAggregator + ?Sized>(dim: usize, n_slots: usize, agg: &A) -> FusedFold {
        FusedFold {
            dim,
            acc: vec![agg.identity(); n_slots * dim],
            counts: vec![0; n_slots],
        }
    }

    /// Merge per-sender fused shards into one dense accumulator set, in
    /// ascending sender order: [`FusedRows::open`], one
    /// [`FusedFold::fold`] per shard, [`FusedFold::seal`].
    pub fn merge(
        dim: usize,
        n_slots: usize,
        shards: &[FusedSlotShard],
        agg: &dyn FusedAggregator,
        spill: Option<&SpillPolicy>,
    ) -> Result<Self> {
        let mut fold = FusedRows::open(dim, n_slots, agg);
        for sh in shards {
            fold.fold(sh, agg);
        }
        fold.seal(spill)
    }

    /// Rebuild a merged inbox from wire parts: per-slot message `counts`
    /// and the dense accumulator rows (`counts.len() * dim` floats).
    /// Applies `spill` exactly like [`FusedRows::merge`] — the fold
    /// happened on the other side of the wire, residency is decided here.
    pub fn from_parts(
        dim: usize,
        counts: Vec<u32>,
        acc: Vec<f32>,
        spill: Option<&SpillPolicy>,
    ) -> Result<Self> {
        if acc.len() != counts.len() * dim {
            return Err(Error::Codec(format!(
                "fused rows data ({} floats) does not match {} slots of dim {dim}",
                acc.len(),
                counts.len()
            )));
        }
        Ok(FusedRows {
            dim,
            acc: SpillableRows::new(dim, acc, spill, 1)?,
            counts,
        })
    }

    /// Split a freshly merged, fully resident inbox into its wire parts
    /// (`counts`, dense accumulator rows). Fails on a spilled store — see
    /// [`RowArena::into_wire_parts`].
    pub fn into_wire_parts(self) -> Result<(Vec<u32>, Vec<f32>)> {
        let acc = self.acc.into_resident().ok_or_else(|| {
            Error::Internal("cannot ship spilled fused rows over the wire".into())
        })?;
        Ok((self.counts, acc))
    }
}

/// A destination's fused inbox while senders' partials still fold into
/// it ([`FusedRows::open`]): the dense accumulators and per-slot counts,
/// resident. Shards fold one at a time, so a caller may hand them over in
/// batches — a wave of senders at a time — and free each batch before the
/// next: the result depends only on the order of the shards, never on how
/// they were batched.
#[derive(Debug)]
pub struct FusedFold {
    dim: usize,
    acc: Vec<f32>,
    counts: Vec<u32>,
}

impl FusedFold {
    /// Fold one sender's shard in, in its first-touch order, one
    /// [`merge_partial`] per partial (copy-on-first). Call once per
    /// sender, senders ascending: that is the determinism contract's merge
    /// order.
    pub fn fold<A: FusedAggregator + ?Sized>(&mut self, shard: &FusedSlotShard, agg: &A) {
        let dim = self.dim;
        debug_assert_eq!(shard.dim, dim);
        for (i, &slot) in shard.keys.iter().enumerate() {
            let s = slot as usize;
            merge_partial(
                &mut self.acc[s * dim..(s + 1) * dim],
                &mut self.counts[s],
                shard.rows.row(i),
                shard.counts[i],
                agg,
            );
        }
    }

    /// The merged inbox: the fully folded accumulators, spilled under
    /// `spill` — fold order is fixed before any byte reaches disk.
    pub fn seal(self, spill: Option<&SpillPolicy>) -> Result<FusedRows> {
        Ok(FusedRows {
            dim: self.dim,
            // Fused accumulators read one slot row at a time.
            acc: SpillableRows::new(self.dim, self.acc, spill, 1)?,
            counts: self.counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;
    impl FusedAggregator for Sum {
        fn identity(&self) -> f32 {
            0.0
        }
        fn accumulate(&self, acc: &mut [f32], row: &[f32]) {
            for (a, r) in acc.iter_mut().zip(row) {
                *a += r;
            }
        }
    }

    #[test]
    fn row_block_round_trips_rows() {
        let mut b = RowBlock::new(3);
        b.push_row(&[1.0, 2.0, 3.0]);
        b.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
        b.row_mut(0)[2] = 9.0;
        assert_eq!(b.data(), &[1.0, 2.0, 9.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn arena_seal_matches_serial_delivery_order() {
        // Sender 0 emits (slot1, a), (slot0, b); sender 1 emits (slot1, c).
        let mut s0 = RowShard::new(2);
        s0.push(1, &[1.0, 1.0]);
        s0.push(0, &[2.0, 2.0]);
        let mut s1 = RowShard::new(2);
        s1.push(1, &[3.0, 3.0]);
        let mut arena = RowArena::seal(2, 3, &[s0, s1], None).unwrap();
        assert_eq!(arena.count(0), 1);
        assert_eq!(arena.rows(0).unwrap().to_vec(), &[2.0, 2.0]);
        // slot 1: sender 0's row before sender 1's
        assert_eq!(arena.count(1), 2);
        assert_eq!(arena.rows(1).unwrap().to_vec(), &[1.0, 1.0, 3.0, 3.0]);
        assert_eq!(arena.count(2), 0);
        assert_eq!(arena.rows(2).unwrap().to_vec(), &[] as &[f32]);
        // slots beyond the sealed range read as empty
        assert_eq!(arena.count(7), 0);
    }

    #[test]
    fn seal_is_a_stable_sort_by_slot_of_the_sender_ascending_concatenation() {
        let mut rng = crate::Xoshiro256::seed_from_u64(29);
        for case in 0..300u64 {
            let dim = [0usize, 1, 64][case as usize % 3];
            // Slots drawn from a prefix of the table leave the rest empty;
            // a third of the senders send nothing.
            let n_slots = 1 + rng.below(12) as usize;
            let used = 1 + rng.below(n_slots as u64);
            let mut tag = 0u32;
            let shards: Vec<RowShard> = (0..rng.below(6))
                .map(|_| {
                    let mut sh = RowShard::new(dim);
                    for _ in 0..rng.below(3) * rng.below(15) {
                        tag += 1;
                        let row: Vec<f32> =
                            (0..dim).map(|j| (tag * 100 + j as u32) as f32).collect();
                        sh.push(rng.below(used) as u32, &row);
                    }
                    sh
                })
                .collect();
            let mut want: Vec<(u32, &[f32])> = shards
                .iter()
                .flat_map(|sh| {
                    sh.slots
                        .iter()
                        .enumerate()
                        .map(|(i, &s)| (s, sh.rows.row(i)))
                })
                .collect();
            want.sort_by_key(|&(slot, _)| slot);
            let mut arena = RowArena::seal(dim, n_slots, &shards, None).unwrap();
            let counts: Vec<usize> = (0..n_slots).map(|s| arena.count(s)).collect();
            let mut got: Vec<(u32, Vec<f32>)> = Vec::new();
            for (s, &count) in counts.iter().enumerate() {
                let rows = arena.rows(s).unwrap().to_vec();
                assert_eq!(rows.len(), count * dim);
                got.extend((0..count).map(|i| (s as u32, rows[i * dim..(i + 1) * dim].to_vec())));
            }
            let want_owned: Vec<(u32, Vec<f32>)> =
                want.iter().map(|&(s, row)| (s, row.to_vec())).collect();
            assert_eq!(got, want_owned, "case {case}");
            assert_eq!(counts.iter().sum::<usize>(), want.len(), "case {case}");

            // What a byte-moving transport hands back — one shard, already
            // in delivery order — seals to the same arena.
            let mut merged = RowShard::new(dim);
            for &(s, row) in &want {
                merged.push(s, row);
            }
            let (offsets, data) = arena.into_wire_parts().unwrap();
            let (m_offsets, m_data) = RowArena::seal(dim, n_slots, &[merged], None)
                .unwrap()
                .into_wire_parts()
                .unwrap();
            assert_eq!((m_offsets, m_data), (offsets, data), "case {case}");
        }
    }

    #[test]
    fn seal_refs_lends_exactly_what_a_flat_seal_of_the_same_rows_holds() {
        let mut rng = crate::Xoshiro256::seed_from_u64(31);
        for case in 0..200u64 {
            let dim = [0usize, 1, 5][case as usize % 3];
            let n_slots = 1 + rng.below(9) as usize;
            // Each sender writes a table and references its rows — some
            // several times, some never — as a fanned-out span would.
            let (mut tables, mut refs, mut shards) = (Vec::new(), Vec::new(), Vec::new());
            for sender in 0..rng.below(5) {
                let mut table = RowBlock::new(dim);
                for r in 0..rng.below(6) {
                    let row: Vec<f32> = (0..dim)
                        .map(|j| (case * 1000 + sender * 100 + r * 10) as f32 + j as f32)
                        .collect();
                    table.push_row(&row);
                }
                let (mut mine, mut shard) = (Vec::new(), RowShard::new(dim));
                if !table.is_empty() || dim == 0 {
                    for _ in 0..rng.below(12) {
                        let (slot, at) = (rng.below(n_slots as u64) as u32, rng.below(6) as u32);
                        if (at as usize) < table.len() {
                            mine.push((slot, at));
                            shard.push(slot, table.row(at as usize));
                        }
                    }
                }
                tables.push(Arc::new(table));
                refs.push(mine);
                shards.push(shard);
            }
            let tables: Arc<[RowTable]> = tables.into();
            for spill in [None, Some(tiny_spill(16))] {
                let spill = spill.as_ref();
                let mut flat = RowArena::seal(dim, n_slots, &shards, spill).unwrap();
                let mut lent =
                    RowArena::seal_refs(dim, n_slots, &refs, Arc::clone(&tables), spill).unwrap();
                assert_eq!(lent.resident_bytes(), flat.resident_bytes(), "case {case}");
                assert_eq!(lent.spilled_bytes(), flat.spilled_bytes(), "case {case}");
                assert_eq!(lent.n_rows(), flat.n_rows(), "case {case}");
                if lent.spilled_bytes() == 0 {
                    assert_eq!(lent.held_bytes(), 8 * lent.n_rows() as u64, "case {case}");
                }
                for s in 0..n_slots + 1 {
                    assert_eq!(lent.count(s), flat.count(s), "case {case} slot {s}");
                    let b = flat.rows(s).unwrap().to_vec();
                    assert_eq!(lent.rows(s).unwrap().to_vec(), b, "case {case} slot {s}");
                }
                if spill.is_none() {
                    let (lo, ld) = lent.into_wire_parts().unwrap();
                    assert_eq!((lo, ld), flat.into_wire_parts().unwrap(), "case {case}");
                }
            }
        }
        // References and tables must pair up sender by sender.
        let tables: Arc<[RowTable]> = vec![Arc::new(RowBlock::new(1))].into();
        assert!(RowArena::seal_refs(1, 1, &[], tables, None).is_err());
    }

    #[test]
    fn streamed_spill_writes_the_file_a_flat_buffer_does() {
        let dim = 7;
        let data = odd_bits(SPILL_BLOCK_BYTES / 4 / dim * 2 + 3, dim);
        let policy = tiny_spill(64);
        let n_rows = data.len() / dim;
        let flat = SpillableRows::new(dim, data.clone(), Some(&policy), 1).unwrap();
        let streamed = SpillableRows::spilled(dim, n_rows, data.chunks(dim), &policy, 1).unwrap();
        assert_eq!(
            std::fs::read(spill_path(&flat)).unwrap(),
            std::fs::read(spill_path(&streamed)).unwrap()
        );
        assert_eq!(flat.resident_bytes(), streamed.resident_bytes());
        assert_eq!(flat.spilled_bytes(), streamed.spilled_bytes());
    }

    #[test]
    fn fused_shard_copy_on_first_then_folds() {
        let mut sh = FusedSlotShard::new(2, 4);
        sh.accumulate(2, &[1.0, -0.0], 1, &Sum);
        // first touch copies bit-exactly, including -0.0
        assert_eq!(sh.rows.row(0)[1].to_bits(), (-0.0f32).to_bits());
        sh.accumulate(2, &[2.0, 1.0], 1, &Sum);
        sh.accumulate(0, &[5.0, 5.0], 3, &Sum);
        assert_eq!(sh.keys, vec![2, 0]); // first-touch order
        assert_eq!(sh.counts, vec![2, 3]);
        assert_eq!(sh.rows.row(0), &[3.0, 1.0]);
    }

    #[test]
    fn fused_shard_payload_len_is_the_sum_over_its_partials() {
        let mut shard = FusedSlotShard::new(3, 600);
        assert_eq!(shard.payload_len(), 0);
        // Counts on both sides of the one- / two-byte varint boundary.
        for (slot, count) in [(5u32, 1u32), (9, 127), (2, 128), (599, 70_000)] {
            shard.accumulate(slot, &[1.0, 2.0, 3.0], count, &Sum);
        }
        shard.accumulate(9, &[1.0, 2.0, 3.0], 1, &Sum);
        let want: usize = shard
            .counts
            .iter()
            .map(|&c| row_payload_len(3, Some(c)))
            .sum();
        assert_eq!(shard.counts, vec![1, 128, 128, 70_000]);
        assert_eq!(shard.payload_len(), want);
    }

    #[test]
    fn fused_merge_orders_senders_and_sums_counts() {
        let mut s0 = FusedSlotShard::new(1, 3);
        s0.accumulate(1, &[1.0], 2, &Sum);
        let mut s1 = FusedSlotShard::new(1, 3);
        s1.accumulate(1, &[10.0], 1, &Sum);
        s1.accumulate(0, &[7.0], 1, &Sum);
        let mut merged = FusedRows::merge(1, 3, &[s0, s1], &Sum, None).unwrap();
        assert_eq!(merged.row(1).unwrap(), &[11.0]);
        assert_eq!(merged.count(1), 3);
        assert_eq!(merged.row(0).unwrap(), &[7.0]);
        assert_eq!(merged.count(0), 1);
        assert_eq!(merged.count(2), 0);
        // slots past the merged range read as empty
        assert_eq!(merged.count(9), 0);
        assert_eq!(merged.row(9).unwrap(), &[] as &[f32]);
    }

    #[test]
    fn fused_shard_reset_is_indistinguishable_from_fresh() {
        let mut pooled = FusedSlotShard::new(3, 5);
        pooled.accumulate(4, &[1.0, 2.0, 3.0], 1, &Sum);
        pooled.accumulate(0, &[4.0, 5.0, 6.0], 2, &Sum);
        // Reuse with a different dim and a larger slot count.
        pooled.reset(2, 8);
        let mut fresh = FusedSlotShard::new(2, 8);
        for sh in [&mut pooled, &mut fresh] {
            sh.accumulate(7, &[1.5, -0.0], 1, &Sum);
            sh.accumulate(7, &[0.5, 1.0], 1, &Sum);
            sh.accumulate(4, &[9.0, 9.0], 3, &Sum);
        }
        assert_eq!(pooled.keys, fresh.keys);
        assert_eq!(pooled.counts, fresh.counts);
        assert_eq!(pooled.rows.data(), fresh.rows.data());
        // Shrinking the slot count keeps the larger index (slots beyond
        // n_slots are simply never addressed).
        pooled.reset(2, 1);
        pooled.accumulate(0, &[1.0, 1.0], 1, &Sum);
        assert_eq!(pooled.keys, vec![0]);
    }

    fn tiny_spill(budget: u64) -> SpillPolicy {
        SpillPolicy::new(std::env::temp_dir().join("inferturbo-rows-tests"), budget)
    }

    /// Feature-like values with awkward bit patterns (-0.0, subnormals,
    /// irrational fractions) so a lossy round-trip would be caught.
    fn odd_bits(n: usize, dim: usize) -> Vec<f32> {
        (0..n * dim)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => f32::from_bits(1), // smallest subnormal
                2 => (i as f32 * 0.37).sin(),
                3 => -(i as f32) / 7.0,
                _ => i as f32 * 1e-30,
            })
            .collect()
    }

    #[test]
    fn spillable_rows_read_back_bit_identical() {
        let dim = 3;
        let data = odd_bits(40, dim);
        let mut resident = SpillableRows::resident(dim, data.clone());
        // Budget of 5 rows' bytes: 40 rows force a spill with many window
        // reloads, including backwards re-reads and an oversized request.
        let mut spilled = SpillableRows::new(dim, data, Some(&tiny_spill(5 * dim as u64 * 4)), 1)
            .expect("spill write");
        assert_eq!(spilled.spilled_bytes(), 40 * dim as u64 * 4);
        assert!(spilled.resident_bytes() < resident.resident_bytes());
        for (lo, hi) in [(0, 1), (0, 40), (7, 19), (39, 40), (3, 3), (2, 9)] {
            let a: Vec<u32> = resident
                .rows(lo, hi)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let b: Vec<u32> = spilled
                .rows(lo, hi)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(a, b, "range {lo}..{hi} diverged after spill");
        }
    }

    #[test]
    fn spill_file_holds_the_lanes_little_endian_across_blocks() {
        // Two and a half write blocks, so the last one is partial.
        let dim = 5;
        let data = odd_bits(SPILL_BLOCK_BYTES * 5 / 8 / dim + 1, dim);
        let rows = SpillableRows::new(dim, data.clone(), Some(&tiny_spill(64)), 1).unwrap();
        let want: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(std::fs::read(spill_path(&rows)).unwrap(), want);
    }

    fn spill_path(rows: &SpillableRows) -> PathBuf {
        match &rows.store {
            RowStore::Spilled { file, .. } => file.path.clone(),
            _ => panic!("expected a spilled store"),
        }
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let policy = tiny_spill(4);
        let rows = SpillableRows::new(2, odd_bits(6, 2), Some(&policy), 1).unwrap();
        let path = spill_path(&rows);
        assert!(path.exists());
        drop(rows);
        assert!(!path.exists(), "drop must clean the spill file");
    }

    #[test]
    fn snapshot_shares_the_spill_file_and_reads_bit_identical() {
        let dim = 2;
        let data = odd_bits(20, dim);
        let mut live = SpillableRows::new(dim, data, Some(&tiny_spill(3 * dim as u64 * 4)), 1)
            .expect("spill write");
        let mut snap = live.snapshot();
        assert_eq!(spill_path(&live), spill_path(&snap), "one file, shared");
        // Interleaved reads through two independent windows agree bit-wise.
        for (lo, hi) in [(0, 4), (15, 20), (7, 8), (0, 20)] {
            let a: Vec<u32> = live
                .rows(lo, hi)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let b: Vec<u32> = snap
                .rows(lo, hi)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(a, b, "range {lo}..{hi} diverged in the snapshot");
        }
        // The file survives until the LAST sharer drops.
        let path = spill_path(&live);
        drop(live);
        assert!(path.exists(), "snapshot must keep the shared file alive");
        assert_eq!(
            snap.rows(2, 5).unwrap().len(),
            3 * dim,
            "snapshot reads after the original dropped"
        );
        drop(snap);
        assert!(!path.exists(), "last sharer cleans the file");
    }

    #[test]
    fn arena_and_fused_snapshots_are_independent_copies() {
        let dim = 2;
        let mut sh = RowShard::new(dim);
        for i in 0..12u32 {
            sh.push(i % 4, &[i as f32, -(i as f32)]);
        }
        let mut arena = RowArena::seal(dim, 4, &[sh], Some(&tiny_spill(8))).unwrap();
        let mut arena_snap = arena.snapshot();
        let mut fsh = FusedSlotShard::new(dim, 4);
        for i in 0..12u32 {
            fsh.accumulate(i % 4, &[i as f32, 1.0], 1, &Sum);
        }
        let mut fused = FusedRows::merge(dim, 4, &[fsh], &Sum, Some(&tiny_spill(8))).unwrap();
        let mut fused_snap = fused.snapshot();
        for s in 0..4 {
            assert_eq!(
                arena.rows(s).unwrap().to_vec(),
                arena_snap.rows(s).unwrap().to_vec()
            );
            assert_eq!(fused.row(s).unwrap(), fused_snap.row(s).unwrap());
            assert_eq!(fused.count(s), fused_snap.count(s));
        }
    }

    #[test]
    fn spill_write_failure_carries_path_and_operation() {
        // Point the spill dir at an existing FILE: create_dir_all fails,
        // and the error must name the path and the write-out operation.
        let bogus = std::env::temp_dir().join("inferturbo-rows-not-a-dir");
        std::fs::write(&bogus, b"x").unwrap();
        let policy = SpillPolicy::new(&bogus, 4);
        let err = SpillableRows::new(2, odd_bits(6, 2), Some(&policy), 1).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("write-out") && msg.contains("inferturbo-rows-not-a-dir"),
            "{msg}"
        );
        assert!(err.is_transient(), "spill I/O failures are retryable");
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn oversized_slot_window_is_charged_at_seal_time() {
        // One hub slot holds 20 of 24 rows while the budget covers 2: the
        // drain must grow its window for that slot, and the residency
        // model must charge that worst case at seal time — before any
        // read — so the engine's memory gate sees it at the barrier.
        let dim = 2;
        let mut sh = RowShard::new(dim);
        for i in 0..24u32 {
            let slot = if i < 20 { 3 } else { i % 3 };
            sh.push(slot, &[i as f32, -(i as f32)]);
        }
        let arena = RowArena::seal(dim, 5, &[sh], Some(&tiny_spill(2 * dim as u64 * 4))).unwrap();
        assert!(arena.spilled_bytes() > 0);
        let at_seal = arena.resident_bytes();
        assert!(
            at_seal >= 20 * dim as u64 * 4,
            "hub window must be pre-charged: {at_seal}"
        );
        // Draining (including the hub slot) never exceeds the seal-time
        // charge.
        let mut arena = arena;
        for s in 0..5 {
            arena.rows(s).unwrap().to_vec();
        }
        assert_eq!(arena.resident_bytes(), at_seal);
    }

    #[test]
    fn arena_seal_under_budget_stays_resident() {
        let mut sh = RowShard::new(2);
        sh.push(0, &[1.0, 2.0]);
        let arena = RowArena::seal(2, 1, &[sh], Some(&tiny_spill(1 << 20))).unwrap();
        assert_eq!(arena.spilled_bytes(), 0);
    }

    #[test]
    fn spilled_arena_reads_bit_identical_to_resident() {
        let dim = 2;
        let feats = odd_bits(30, dim);
        let mut shards: Vec<RowShard> = (0..3).map(|_| RowShard::new(dim)).collect();
        for i in 0..30 {
            shards[i % 3].push((i % 7) as u32, &feats[i * dim..(i + 1) * dim]);
        }
        let shards2 = shards.clone();
        let mut plain = RowArena::seal(dim, 7, &shards, None).unwrap();
        let mut spilled = RowArena::seal(dim, 7, &shards2, Some(&tiny_spill(16))).unwrap();
        assert!(spilled.spilled_bytes() > 0);
        assert!(spilled.resident_bytes() < plain.resident_bytes());
        for s in 0..8 {
            assert_eq!(plain.count(s), spilled.count(s));
            let a: Vec<u32> = plain
                .rows(s)
                .unwrap()
                .to_vec()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let b: Vec<u32> = spilled
                .rows(s)
                .unwrap()
                .to_vec()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(a, b, "slot {s} diverged after spill");
        }
    }

    #[test]
    fn spilled_fused_merge_bit_identical_to_resident() {
        let dim = 3;
        let feats = odd_bits(24, dim);
        let mut shards: Vec<FusedSlotShard> = (0..2).map(|_| FusedSlotShard::new(dim, 9)).collect();
        for i in 0..24 {
            shards[i % 2].accumulate((i % 9) as u32, &feats[i * dim..(i + 1) * dim], 1, &Sum);
        }
        // Rebuild identical shards for the second merge (shards are
        // consumed by reference but folding mutated nothing — reuse).
        let mut plain = FusedRows::merge(dim, 9, &shards, &Sum, None).unwrap();
        let mut spilled = FusedRows::merge(dim, 9, &shards, &Sum, Some(&tiny_spill(8))).unwrap();
        assert!(spilled.spilled_bytes() > 0);
        assert!(spilled.resident_bytes() < plain.resident_bytes());
        for s in 0..10 {
            assert_eq!(plain.count(s), spilled.count(s));
            let a: Vec<u32> = plain.row(s).unwrap().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = spilled
                .row(s)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(a, b, "slot {s} diverged after spill");
        }
    }

    #[test]
    fn u32_row_capacity_boundary_is_a_typed_error() {
        // Exactly u32::MAX rows still index; one more must surface as a
        // catchable Error::Capacity, never a silent release-mode wrap.
        assert!(check_u32_row_capacity(u32::MAX as usize).is_ok());
        let err = check_u32_row_capacity(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, Error::Capacity(_)), "{err:?}");
        assert!(err.to_string().contains("row arena overflow"), "{err}");
    }

    #[test]
    fn agg_kind_matches_hand_rolled_aggregators_bitwise() {
        // AggKind::Sum must fold bit-identically to the test Sum above
        // (same `+=` lane loop), and Max must keep acc on ties the way
        // tensor::row_max does.
        let rows: [&[f32]; 3] = [&[1.0, -0.0, 0.3], &[-2.0, 0.0, 0.7], &[0.5, -0.0, 0.1]];
        let mut a = vec![AggKind::Sum.identity(); 3];
        let mut b = vec![Sum.identity(); 3];
        for r in rows {
            AggKind::Sum.accumulate(&mut a, r);
            Sum.accumulate(&mut b, r);
        }
        let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
        let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ab, bb);
        let mut m = vec![AggKind::Max.identity(); 2];
        AggKind::Max.accumulate(&mut m, &[-0.0, 5.0]);
        AggKind::Max.accumulate(&mut m, &[0.0, 5.0]); // tie: keep acc
        assert_eq!(m[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(m[1], 5.0);
        // Wire round-trip of the kind tag itself.
        for k in [AggKind::Sum, AggKind::Max] {
            assert_eq!(AggKind::from_bytes(&k.to_bytes()).unwrap(), k);
            assert_eq!(k.wire_kind(), Some(k));
        }
        assert!(AggKind::from_bytes(&[9]).is_err());
    }

    #[test]
    fn arena_wire_parts_round_trip_bit_identical() {
        let dim = 2;
        let feats = odd_bits(10, dim);
        let mut sh = RowShard::new(dim);
        for (i, row) in feats.chunks(dim).enumerate() {
            sh.push((i % 3) as u32, row);
        }
        let mut direct = RowArena::seal(dim, 3, &[sh.clone()], None).unwrap();
        let (offsets, data) = RowArena::seal(dim, 3, &[sh], None)
            .unwrap()
            .into_wire_parts()
            .unwrap();
        // Rebuild with a spill policy tight enough to force out-of-core:
        // from_parts must apply residency like seal does.
        let mut rebuilt = RowArena::from_parts(dim, offsets, data, Some(&tiny_spill(8))).unwrap();
        assert!(rebuilt.spilled_bytes() > 0);
        for s in 0..4 {
            assert_eq!(direct.count(s), rebuilt.count(s));
            let a: Vec<u32> = direct
                .rows(s)
                .unwrap()
                .to_vec()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let b: Vec<u32> = rebuilt
                .rows(s)
                .unwrap()
                .to_vec()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(a, b, "slot {s} diverged through wire parts");
        }
    }

    #[test]
    fn arena_from_parts_rejects_malformed_offsets() {
        // Non-monotone offsets.
        assert!(RowArena::from_parts(1, vec![0, 2, 1], vec![0.0; 2], None).is_err());
        // Offsets not starting at zero.
        assert!(RowArena::from_parts(1, vec![1, 2], vec![0.0; 2], None).is_err());
        // Data length disagreeing with the last offset.
        assert!(RowArena::from_parts(1, vec![0, 2], vec![0.0; 3], None).is_err());
        // Empty offsets are meaningless even with no data.
        assert!(RowArena::from_parts(1, vec![], vec![], None).is_err());
        // Degenerate but valid: zero slots, zero rows.
        assert!(RowArena::from_parts(1, vec![0], vec![], None).is_ok());
    }

    #[test]
    fn fused_wire_parts_round_trip_bit_identical() {
        let dim = 3;
        let feats = odd_bits(12, dim);
        let mut sh = FusedSlotShard::new(dim, 5);
        for (i, row) in feats.chunks(dim).enumerate() {
            sh.accumulate((i % 5) as u32, row, 1, &AggKind::Sum);
        }
        let mut direct = FusedRows::merge(dim, 5, &[sh], &AggKind::Sum, None).unwrap();
        let (counts, acc) = direct.snapshot().into_wire_parts().unwrap();
        let mut rebuilt = FusedRows::from_parts(dim, counts, acc, Some(&tiny_spill(8))).unwrap();
        assert!(rebuilt.spilled_bytes() > 0);
        for s in 0..5 {
            assert_eq!(direct.count(s), rebuilt.count(s));
            let a: Vec<u32> = direct.row(s).unwrap().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = rebuilt
                .row(s)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(a, b, "slot {s} diverged through wire parts");
        }
        // Mismatched counts/data length is a typed codec error.
        assert!(FusedRows::from_parts(3, vec![1, 1], vec![0.0; 5], None).is_err());
    }

    #[test]
    fn spilled_stores_refuse_to_ship_as_wire_parts() {
        let arena = {
            let mut sh = RowShard::new(2);
            for i in 0..10u32 {
                sh.push(i % 3, &[i as f32, 0.5]);
            }
            RowArena::seal(2, 3, &[sh], Some(&tiny_spill(8))).unwrap()
        };
        assert!(arena.spilled_bytes() > 0);
        assert!(arena.into_wire_parts().is_err());
    }
}
