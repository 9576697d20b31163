//! The transport wire protocol: length-prefixed request/response frames.
//!
//! # Frame format
//!
//! Every message on a worker child's socket is one **frame**: a 4-byte
//! little-endian payload length followed by the payload. The payload is a
//! [`WireWriter`]-encoded record whose first byte is an opcode:
//!
//! - [`OP_EXCHANGE`] — a Pregel seal-barrier exchange for **one**
//!   destination worker: `varint n_slots`, a plane tag
//!   ([`PLANE_NONE`]/[`PLANE_ROWS`]/[`PLANE_FUSED`]) followed by the
//!   per-sender shards in **ascending sender order** (materialized shards
//!   via [`RowShard`]'s `Encode`, fused shards via [`FusedSlotShard`]'s,
//!   prefixed by the [`AggKind`] tag), then an optional legacy plane:
//!   per-sender record lists of `(varint slot, length-prefixed bytes)` in
//!   emission order.
//! - [`OP_CONCAT`] — a MapReduce merge for one destination partition: an
//!   optional fused-bucket plane (per-sender `keys/counts/rows` triples)
//!   and an optional legacy plane of `(varint u64 key, bytes)` records,
//!   again in ascending sender order.
//!
//! The response starts with a status byte: [`STATUS_OK`] followed by the
//! merged planes, or [`STATUS_ERR`] followed by an error-kind byte and a
//! message, which the parent reconstructs into the matching typed
//! [`Error`] variant.
//!
//! # Merge-order guarantee
//!
//! The child merges exactly like the in-process seal barrier, through the
//! same two definitions: materialized rows land in
//! [`seal_order`] (**ascending sender order, emission order within a
//! sender**, stable slot-major), fused partials fold one
//! [`merge_partial`] at a time (copy-on-first, senders ascending, each in
//! first-touch order); legacy records are stably ordered slot-major
//! (senders ascending within a slot). Spill residency is *not* decided
//! here — merged rows return resident and the parent applies its
//! [`SpillPolicy`](inferturbo_common::rows::SpillPolicy) via
//! `RowArena::from_parts` / `FusedRows::from_parts`, so the spill fault
//! site and the memory model stay on the parent, identical to the
//! in-process backend.
//!
//! The protocol is strictly half-duplex per destination: the child reads
//! one whole frame, then writes one whole frame — no interleaving, so the
//! socket can never deadlock on partial writes.
//!
//! # Kept buffers
//!
//! A child serves frame after frame, so its side of the protocol comes in
//! kept-buffer forms: [`read_frame_into`] reads into one request buffer,
//! and a long-lived [`FrameServer`] merges straight from the request bytes
//! (no shard is decoded into an owned value) into a response and scratch
//! buffers it keeps. [`read_frame`] and [`serve_payload`] are the same
//! code given fresh buffers.

use inferturbo_common::codec::{varint_len, Decode, Encode, WireReader, WireWriter};
use inferturbo_common::rows::{
    decode_rows_into, merge_partial, seal_order, AggKind, FusedAggregator, FusedSlotShard,
    RowBlock, RowShard,
};
use inferturbo_common::{Error, Result};
use std::io::{Read, Write};

pub const OP_EXCHANGE: u8 = 1;
pub const OP_CONCAT: u8 = 2;

pub const PLANE_NONE: u8 = 0;
pub const PLANE_ROWS: u8 = 1;
pub const PLANE_FUSED: u8 = 2;

pub const STATUS_OK: u8 = 0;
pub const STATUS_ERR: u8 = 1;

const ERR_CAPACITY: u8 = 1;
const ERR_CODEC: u8 = 2;
const ERR_IO: u8 = 3;
const ERR_INTERNAL: u8 = 4;

/// One sender's pre-encoded legacy records for one destination:
/// `(destination slot, encoded message)` in emission order.
pub type EncodedRecords = Vec<(u32, Vec<u8>)>;

/// The batch analogue, keyed by sparse wire ids.
pub type EncodedKeyRecords = Vec<(u64, Vec<u8>)>;

// ---- frame IO ------------------------------------------------------------

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the u32 length prefix",
                payload.len()
            ),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame into `buf`, which is cleared first and
/// keeps its allocation — the kept-buffer form of [`read_frame`].
/// `Ok(false)` on a clean EOF at a frame boundary (the peer closed the
/// stream); an EOF mid-frame is `UnexpectedEof`. The payload is read
/// through `take(len)`, so `buf` grows only as bytes arrive: a length
/// prefix that lies cannot size it.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(false),
            0 => return Err(eof("stream closed inside a frame length prefix")),
            n => got += n,
        }
    }
    let len = u64::from(u32::from_le_bytes(len));
    buf.clear();
    if r.take(len).read_to_end(buf)? as u64 != len {
        return Err(eof("stream closed inside a frame payload"));
    }
    Ok(true)
}

/// Read one length-prefixed frame into a fresh buffer. `Ok(None)` on a
/// clean EOF at a frame boundary; see [`read_frame_into`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

fn eof(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what)
}

// ---- request encoding (parent side) --------------------------------------

/// The columnar half of an exchange request, borrowed from the engine.
pub enum WirePlane<'a> {
    None,
    Rows {
        dim: usize,
        shards: &'a [RowShard],
    },
    Fused {
        dim: usize,
        kind: AggKind,
        shards: &'a [FusedSlotShard],
    },
}

pub fn encode_exchange_request(
    n_slots: usize,
    plane: &WirePlane<'_>,
    legacy: Option<&[EncodedRecords]>,
) -> Vec<u8> {
    // Reserve the columnar plane (all but a few dozen bytes of a columnar
    // frame) up front: growing a multi-megabyte frame by reallocation
    // showed up as +1.2 MB peak RSS on the cross-process workload. 40
    // covers the worst-case header (opcode, tags, three 10-byte varints).
    let plane_len: usize = match plane {
        WirePlane::None => 0,
        WirePlane::Rows { shards, .. } => shards.iter().map(Encode::encoded_len).sum(),
        WirePlane::Fused { shards, .. } => shards.iter().map(Encode::encoded_len).sum(),
    };
    let mut w = WireWriter::with_capacity(plane_len + 40);
    w.put_u8(OP_EXCHANGE);
    w.put_varint(n_slots as u64);
    match plane {
        WirePlane::None => w.put_u8(PLANE_NONE),
        WirePlane::Rows { dim, shards } => {
            w.put_u8(PLANE_ROWS);
            w.put_varint(*dim as u64);
            w.put_varint(shards.len() as u64);
            for sh in *shards {
                sh.encode(&mut w);
            }
        }
        WirePlane::Fused { dim, kind, shards } => {
            w.put_u8(PLANE_FUSED);
            kind.encode(&mut w);
            w.put_varint(*dim as u64);
            w.put_varint(shards.len() as u64);
            for sh in *shards {
                sh.encode(&mut w);
            }
        }
    }
    encode_legacy_plane(&mut w, legacy, |w, &(slot, ref bytes)| {
        w.put_varint(slot as u64);
        w.put_bytes(bytes);
    });
    w.into_bytes()
}

/// Borrowed wire view of one sender's concat bucket: keys, counts, rows.
pub type BucketRefs<'a> = (&'a [u64], &'a [u32], &'a RowBlock);

pub fn encode_concat_request(
    dim: usize,
    buckets: Option<&[BucketRefs<'_>]>,
    legacy: Option<&[EncodedKeyRecords]>,
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(OP_CONCAT);
    w.put_varint(dim as u64);
    match buckets {
        None => w.put_u8(0),
        Some(senders) => {
            w.put_u8(1);
            w.put_varint(senders.len() as u64);
            for (keys, counts, rows) in senders {
                w.put_varint(keys.len() as u64);
                for &k in *keys {
                    w.put_varint(k);
                }
                for &c in *counts {
                    w.put_varint(c as u64);
                }
                w.put_f32_lanes(rows.data());
            }
        }
    }
    encode_legacy_plane(&mut w, legacy, |w, &(key, ref bytes)| {
        w.put_varint(key);
        w.put_bytes(bytes);
    });
    w.into_bytes()
}

fn encode_legacy_plane<T>(
    w: &mut WireWriter,
    legacy: Option<&[Vec<T>]>,
    mut rec: impl FnMut(&mut WireWriter, &T),
) {
    match legacy {
        None => w.put_u8(0),
        Some(senders) => {
            w.put_u8(1);
            w.put_varint(senders.len() as u64);
            for sender in senders {
                w.put_varint(sender.len() as u64);
                for r in sender {
                    rec(w, r);
                }
            }
        }
    }
}

// ---- request merge (child side) --------------------------------------------

/// The child's long-lived serving state. [`FrameServer::serve`] merges a
/// request straight from its bytes — no shard is decoded into an owned
/// value first — into buffers kept across frames: the response, and every
/// scratch buffer a merge needs. Each is cleared per request, never
/// shrunk, so once the largest frame has been served the next one
/// allocates nothing (a legacy plane aside: its records are owned byte
/// strings).
#[derive(Debug, Default)]
pub struct FrameServer {
    response: Vec<u8>,
    /// Fused plane: the dense accumulators and per-slot message counts.
    /// Concat: the staged rows and counts.
    acc: Vec<f32>,
    counts: Vec<u32>,
    /// Fused plane: one shard's first-touch keys and counts, and one of
    /// its partials read from the lanes.
    shard_keys: Vec<u32>,
    shard_counts: Vec<u32>,
    row: Vec<f32>,
    /// Rows plane: each row's `(slot, offset of its lanes in the
    /// request)` in concatenation order, then the seal's offsets and
    /// sources.
    rows: Vec<(u32, usize)>,
    offsets: Vec<u32>,
    sources: Vec<usize>,
    /// Concat: the staged keys.
    keys: Vec<u64>,
}

/// Which columnar plane an exchange merged into the server's buffers.
enum Merged {
    None,
    Rows { dim: usize },
    Fused { dim: usize },
}

impl FrameServer {
    /// Serve one request payload: merge it and encode the response, which
    /// the server holds until the next call. Typed failures become
    /// [`STATUS_ERR`] frames; this never fails (a reply always goes back,
    /// so the parent is never left blocked on a vanished response).
    pub fn serve(&mut self, payload: &[u8]) -> &[u8] {
        let mut w = WireWriter::reuse(std::mem::take(&mut self.response));
        if let Err(e) = self.try_serve(payload, &mut w) {
            w = WireWriter::reuse(w.into_bytes());
            put_error(&mut w, &e);
        }
        self.response = w.into_bytes();
        &self.response
    }

    fn try_serve(&mut self, payload: &[u8], w: &mut WireWriter) -> Result<()> {
        let mut r = WireReader::new(payload);
        match r.get_u8()? {
            OP_EXCHANGE => self.serve_exchange(payload, &mut r, w),
            OP_CONCAT => self.serve_concat(&mut r, w),
            op => Err(Error::Codec(format!("unknown transport opcode {op}"))),
        }
    }

    /// Merge the whole request first, then write the response in one
    /// presized pass.
    fn serve_exchange(
        &mut self,
        payload: &[u8],
        r: &mut WireReader<'_>,
        w: &mut WireWriter,
    ) -> Result<()> {
        let n_slots = r.get_varint()? as usize;
        let merged = match r.get_u8()? {
            PLANE_NONE => Merged::None,
            PLANE_ROWS => {
                let dim = get_dim(r)?;
                self.seal_rows(payload, r, n_slots, dim)?;
                Merged::Rows { dim }
            }
            PLANE_FUSED => {
                let kind = AggKind::decode(r)?;
                let dim = get_dim(r)?;
                self.fold_fused(r, n_slots, dim, &kind)?;
                Merged::Fused { dim }
            }
            p => return Err(Error::Codec(format!("unknown exchange plane tag {p}"))),
        };
        let legacy = match decode_legacy_plane(r, |r| Ok((r.get_varint_u32()?, r.get_bytes()?)))? {
            None => None,
            Some(senders) => {
                for sender in &senders {
                    for &(slot, _) in sender {
                        check_slot(slot, n_slots)?;
                    }
                }
                Some(merge_legacy(senders))
            }
        };
        if !r.is_empty() {
            return Err(Error::Codec("trailing bytes after exchange request".into()));
        }

        let cols_len = match merged {
            Merged::None => 0,
            Merged::Rows { dim } => {
                varint_len(dim as u64) + varints_len(&self.offsets) + self.sources.len() * dim * 4
            }
            Merged::Fused { dim } => {
                varint_len(dim as u64) + varints_len(&self.counts) + self.acc.len() * 4
            }
        };
        w.reserve(2 + cols_len + records_len(legacy.as_deref()));
        w.put_u8(STATUS_OK);
        match merged {
            Merged::None => w.put_u8(PLANE_NONE),
            Merged::Rows { dim } => {
                w.put_u8(PLANE_ROWS);
                w.put_varint(dim as u64);
                put_varints(w, &self.offsets);
                for &at in &self.sources {
                    w.put_raw(&payload[at..at + dim * 4]);
                }
            }
            Merged::Fused { dim } => {
                w.put_u8(PLANE_FUSED);
                w.put_varint(dim as u64);
                put_varints(w, &self.counts);
                w.put_f32_lanes(&self.acc);
            }
        }
        put_records(w, legacy.as_deref());
        Ok(())
    }

    /// Rows plane: count the slots into [`seal_order`], keeping for each
    /// row only where its lanes sit in the request; `serve_exchange` then
    /// copies those bytes in seal order, with no f32 round trip.
    fn seal_rows(
        &mut self,
        payload: &[u8],
        r: &mut WireReader<'_>,
        n_slots: usize,
        dim: usize,
    ) -> Result<()> {
        check_fits_frame(n_slots, 0)?;
        self.rows.clear();
        for _ in 0..get_count(r)? {
            check_width(r, dim)?;
            let n = get_count(r)?;
            let lanes_len = lane_bytes(n, dim)?;
            let first = self.rows.len();
            for i in 0..n {
                let slot = check_slot(r.get_varint_u32()?, n_slots)?;
                self.rows.push((slot, i * dim * 4));
            }
            let lanes_at = payload.len() - r.remaining();
            r.get_raw(lanes_len)?;
            for (_, at) in &mut self.rows[first..] {
                *at += lanes_at;
            }
        }
        seal_order(
            n_slots,
            self.rows.len(),
            self.rows.iter().copied(),
            &mut self.offsets,
            &mut self.sources,
        )
    }

    /// Fused plane: fold each sender's partials from the frame into the
    /// dense accumulators — senders ascending, each in first-touch order,
    /// one [`merge_partial`] per partial: `FusedRows::merge`'s order.
    fn fold_fused(
        &mut self,
        r: &mut WireReader<'_>,
        n_slots: usize,
        dim: usize,
        kind: &AggKind,
    ) -> Result<()> {
        check_fits_frame(n_slots, dim)?;
        self.acc.clear();
        self.acc.resize(n_slots * dim, kind.identity());
        self.counts.clear();
        self.counts.resize(n_slots, 0);
        self.row.clear();
        self.row.resize(dim, 0.0);
        for _ in 0..get_count(r)? {
            check_width(r, dim)?;
            let n = get_count(r)?;
            let lanes_len = lane_bytes(n, dim)?;
            self.shard_keys.clear();
            for _ in 0..n {
                self.shard_keys
                    .push(check_slot(r.get_varint_u32()?, n_slots)?);
            }
            self.shard_counts.clear();
            for _ in 0..n {
                self.shard_counts.push(r.get_varint_u32()?);
            }
            let lanes = r.get_raw(lanes_len)?;
            let partials = self.shard_keys.iter().zip(&self.shard_counts);
            for (i, (&slot, &count)) in partials.enumerate() {
                let bytes = &lanes[i * dim * 4..(i + 1) * dim * 4];
                for (x, b) in self.row.iter_mut().zip(bytes.chunks_exact(4)) {
                    *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
                let s = slot as usize;
                merge_partial(
                    &mut self.acc[s * dim..(s + 1) * dim],
                    &mut self.counts[s],
                    &self.row,
                    count,
                    kind,
                );
            }
        }
        Ok(())
    }

    fn serve_concat(&mut self, r: &mut WireReader<'_>, w: &mut WireWriter) -> Result<()> {
        let dim = r.get_varint()? as usize;
        let bucket = r.get_u8()? == 1;
        self.keys.clear();
        self.counts.clear();
        self.acc.clear();
        if bucket {
            for _ in 0..get_count(r)? {
                let n = get_count(r)?;
                for _ in 0..n {
                    self.keys.push(r.get_varint()?);
                }
                for _ in 0..n {
                    self.counts.push(r.get_varint_u32()?);
                }
                decode_rows_into(r, n, dim, &mut self.acc)?;
            }
        }
        // Concatenation in ascending sender order IS the merge.
        let legacy: Option<EncodedKeyRecords> =
            decode_legacy_plane(r, |r| Ok((r.get_varint()?, r.get_bytes()?)))?
                .map(|senders| senders.into_iter().flatten().collect());
        if !r.is_empty() {
            return Err(Error::Codec("trailing bytes after concat request".into()));
        }

        let bucket_len = if bucket {
            varint_len(self.keys.len() as u64)
                + varints_sum(self.keys.iter().copied())
                + varints_sum(self.counts.iter().map(|&c| c as u64))
                + varint_len(self.acc.len() as u64)
                + self.acc.len() * 4
        } else {
            0
        };
        w.reserve(2 + bucket_len + records_len(legacy.as_deref()));
        w.put_u8(STATUS_OK);
        if bucket {
            w.put_u8(1);
            w.put_varint(self.keys.len() as u64);
            for &k in &self.keys {
                w.put_varint(k);
            }
            for &c in &self.counts {
                w.put_varint(c as u64);
            }
            w.put_f32_slice(&self.acc);
        } else {
            w.put_u8(0);
        }
        put_records(w, legacy.as_deref());
        Ok(())
    }
}

/// Serve one request payload with fresh buffers: [`FrameServer::serve`]
/// on a new server, its response handed back.
pub fn serve_payload(payload: &[u8]) -> Vec<u8> {
    let mut server = FrameServer::default();
    server.serve(payload);
    server.response
}

/// Stable slot-major ordering: senders arrive ascending and
/// `sort_by_key` is stable, so within a slot the records keep (sender
/// ascending, emission order) — exactly the in-process delivery order.
pub(super) fn merge_legacy(senders: Vec<EncodedRecords>) -> EncodedRecords {
    let mut all: EncodedRecords = senders.into_iter().flatten().collect();
    all.sort_by_key(|&(slot, _)| slot);
    all
}

fn decode_legacy_plane<T>(
    r: &mut WireReader<'_>,
    mut rec: impl FnMut(&mut WireReader<'_>) -> Result<T>,
) -> Result<Option<Vec<Vec<T>>>> {
    if r.get_u8()? == 0 {
        return Ok(None);
    }
    let n_senders = get_count(r)?;
    let mut senders = Vec::with_capacity(n_senders);
    for _ in 0..n_senders {
        let n = get_count(r)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(rec(r)?);
        }
        senders.push(records);
    }
    Ok(Some(senders))
}

/// A `u32` sequence as a response carries it: its count, then each value,
/// all varints.
fn put_varints(w: &mut WireWriter, vals: &[u32]) {
    w.put_varint(vals.len() as u64);
    for &v in vals {
        w.put_varint(v as u64);
    }
}

/// Encoded length of [`put_varints`]`(vals)`.
fn varints_len(vals: &[u32]) -> usize {
    varint_len(vals.len() as u64) + varints_sum(vals.iter().map(|&v| v as u64))
}

/// Bytes of `vals` as bare varints.
fn varints_sum(vals: impl Iterator<Item = u64>) -> usize {
    vals.map(varint_len).sum()
}

/// A merged legacy plane as a response carries it: a presence byte, then
/// the record count and each `(varint key, length-prefixed bytes)`.
fn put_records<K: Copy + Into<u64>>(w: &mut WireWriter, records: Option<&[(K, Vec<u8>)]>) {
    match records {
        None => w.put_u8(0),
        Some(records) => {
            w.put_u8(1);
            w.put_varint(records.len() as u64);
            for (key, bytes) in records {
                w.put_varint((*key).into());
                w.put_bytes(bytes);
            }
        }
    }
}

/// Encoded length of [`put_records`]`(records)`.
fn records_len<K: Copy + Into<u64>>(records: Option<&[(K, Vec<u8>)]>) -> usize {
    1 + records.map_or(0, |records| {
        varint_len(records.len() as u64)
            + records
                .iter()
                .map(|(key, bytes)| {
                    varint_len((*key).into()) + varint_len(bytes.len() as u64) + bytes.len()
                })
                .sum::<usize>()
    })
}

/// A claimed element count, validated against the bytes actually present
/// before anything is sized from it (every element is at least one byte).
fn get_count(r: &mut WireReader<'_>) -> Result<usize> {
    let n = r.get_varint()? as usize;
    if n > r.remaining() {
        return Err(Error::Codec(format!(
            "frame claims {n} elements but only {} bytes remain",
            r.remaining()
        )));
    }
    Ok(n)
}

/// A plane's row width, at most `u32::MAX` lanes as an honest encoder
/// writes.
fn get_dim(r: &mut WireReader<'_>) -> Result<usize> {
    let dim = r.get_varint()?;
    if dim > u64::from(u32::MAX) {
        return Err(Error::Codec(format!("row dim {dim} exceeds u32 range")));
    }
    Ok(dim as usize)
}

/// A shard's width must equal its plane's: rows of any other width would
/// misalign the merge.
fn check_width(r: &mut WireReader<'_>, dim: usize) -> Result<()> {
    let width = r.get_varint()?;
    if width != dim as u64 {
        return Err(Error::Codec(format!(
            "shard of width {width} in a plane of width {dim}"
        )));
    }
    Ok(())
}

/// Bytes of `n` rows of `dim` f32 lanes, overflow-checked.
fn lane_bytes(n: usize, dim: usize) -> Result<usize> {
    n.checked_mul(dim)
        .and_then(|lanes| lanes.checked_mul(4))
        .ok_or_else(|| Error::Codec(format!("{n}x{dim} rows overflow")))
}

/// A response is one frame, so it must fit the `u32` length prefix; for
/// `n_slots` slots it holds at least a varint plus `lanes_per_slot` f32
/// lanes each. Checked before anything is sized from `n_slots`.
fn check_fits_frame(n_slots: usize, lanes_per_slot: usize) -> Result<()> {
    let bytes = lanes_per_slot
        .checked_mul(4)
        .and_then(|b| b.checked_add(1))
        .and_then(|b| b.checked_mul(n_slots));
    match bytes {
        Some(b) if b <= u32::MAX as usize => Ok(()),
        _ => Err(Error::Codec(format!(
            "a response for {n_slots} slots of {lanes_per_slot} lanes exceeds the frame limit"
        ))),
    }
}

fn check_slot(slot: u32, n_slots: usize) -> Result<u32> {
    if slot as usize >= n_slots {
        return Err(Error::Codec(format!(
            "destination slot {slot} out of range for {n_slots} slots"
        )));
    }
    Ok(slot)
}

// ---- response decoding (parent side) --------------------------------------

/// The merged columnar plane of an exchange response.
#[derive(Debug)]
pub enum MergedWire {
    None,
    Rows {
        dim: usize,
        offsets: Vec<u32>,
        data: Vec<f32>,
    },
    Fused {
        dim: usize,
        counts: Vec<u32>,
        acc: Vec<f32>,
    },
}

#[derive(Debug)]
pub struct ExchangeResponse {
    pub cols: MergedWire,
    pub legacy: Option<EncodedRecords>,
}

#[derive(Debug)]
pub struct ConcatResponse {
    pub bucket: Option<(Vec<u64>, Vec<u32>, Vec<f32>)>,
    pub legacy: Option<EncodedKeyRecords>,
}

pub fn decode_exchange_response(payload: &[u8]) -> Result<ExchangeResponse> {
    let mut r = WireReader::new(payload);
    check_status(&mut r)?;
    let cols = match r.get_u8()? {
        PLANE_NONE => MergedWire::None,
        PLANE_ROWS => {
            let dim = r.get_varint()? as usize;
            let n = get_count(&mut r)?;
            let mut offsets = Vec::with_capacity(n);
            for _ in 0..n {
                offsets.push(r.get_varint_u32()?);
            }
            let rows = offsets.last().copied().unwrap_or(0) as usize;
            let mut data = Vec::new();
            decode_rows_into(&mut r, rows, dim, &mut data)?;
            MergedWire::Rows { dim, offsets, data }
        }
        PLANE_FUSED => {
            let dim = r.get_varint()? as usize;
            let n = get_count(&mut r)?;
            let mut counts = Vec::with_capacity(n);
            for _ in 0..n {
                counts.push(r.get_varint_u32()?);
            }
            let mut acc = Vec::new();
            decode_rows_into(&mut r, n, dim, &mut acc)?;
            MergedWire::Fused { dim, counts, acc }
        }
        p => return Err(Error::Codec(format!("unknown response plane tag {p}"))),
    };
    let legacy = match r.get_u8()? {
        0 => None,
        _ => {
            let n = get_count(&mut r)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push((r.get_varint_u32()?, r.get_bytes()?));
            }
            Some(records)
        }
    };
    if !r.is_empty() {
        return Err(Error::Codec(
            "trailing bytes after exchange response".into(),
        ));
    }
    Ok(ExchangeResponse { cols, legacy })
}

pub fn decode_concat_response(payload: &[u8]) -> Result<ConcatResponse> {
    let mut r = WireReader::new(payload);
    check_status(&mut r)?;
    let bucket = match r.get_u8()? {
        0 => None,
        _ => {
            let n = get_count(&mut r)?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.get_varint()?);
            }
            let mut counts = Vec::with_capacity(n);
            for _ in 0..n {
                counts.push(r.get_varint_u32()?);
            }
            let data = r.get_f32_vec()?;
            Some((keys, counts, data))
        }
    };
    let legacy = match r.get_u8()? {
        0 => None,
        _ => {
            let n = get_count(&mut r)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push((r.get_varint()?, r.get_bytes()?));
            }
            Some(records)
        }
    };
    if !r.is_empty() {
        return Err(Error::Codec("trailing bytes after concat response".into()));
    }
    Ok(ConcatResponse { bucket, legacy })
}

fn check_status(r: &mut WireReader<'_>) -> Result<()> {
    match r.get_u8()? {
        STATUS_OK => Ok(()),
        STATUS_ERR => Err(decode_error(r)?),
        s => Err(Error::Codec(format!("unknown response status {s}"))),
    }
}

// ---- typed errors across the wire ------------------------------------------

/// Encode a typed error as a [`STATUS_ERR`] frame. Only the variants a
/// merge can actually produce travel with their own tag; everything else
/// degrades to [`Error::Internal`] carrying the rendered message.
pub fn encode_error(e: &Error) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_error(&mut w, e);
    w.into_bytes()
}

fn put_error(w: &mut WireWriter, e: &Error) {
    w.put_u8(STATUS_ERR);
    let (kind, msg) = match e {
        Error::Capacity(m) => (ERR_CAPACITY, m.clone()),
        Error::Codec(m) => (ERR_CODEC, m.clone()),
        Error::Io(m) => (ERR_IO, m.clone()),
        Error::Internal(m) => (ERR_INTERNAL, m.clone()),
        other => (ERR_INTERNAL, other.to_string()),
    };
    w.put_u8(kind);
    w.put_str(&msg);
}

fn decode_error(r: &mut WireReader<'_>) -> Result<Error> {
    let kind = r.get_u8()?;
    let msg = r.get_string()?;
    Ok(match kind {
        ERR_CAPACITY => Error::Capacity(msg),
        ERR_CODEC => Error::Codec(msg),
        ERR_IO => Error::Io(msg),
        _ => Error::Internal(msg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where each of a server's kept buffers lives, and how big it is.
    fn buffers(s: &FrameServer) -> Vec<(usize, usize)> {
        fn at<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr() as usize, v.capacity())
        }
        vec![
            at(&s.response),
            at(&s.acc),
            at(&s.counts),
            at(&s.shard_keys),
            at(&s.shard_counts),
            at(&s.row),
            at(&s.rows),
            at(&s.offsets),
            at(&s.sources),
            at(&s.keys),
        ]
    }

    #[test]
    fn a_warm_server_serves_every_plane_without_reallocating() {
        let (dim, n_slots) = (4, 64);
        let mut rows = RowShard::new(dim);
        let mut fused = FusedSlotShard::new(dim, n_slots);
        for i in 0..200u32 {
            let row = [i as f32, -(i as f32), 0.5, 1e-3 * i as f32];
            rows.push(i * 7 % n_slots as u32, &row);
            fused.accumulate(i * 5 % n_slots as u32, &row, 1, &AggKind::Max);
        }
        let mut bucket = RowBlock::new(dim);
        bucket.push_row(&[1.0, 2.0, 3.0, 4.0]);
        let requests = [
            encode_exchange_request(
                n_slots,
                &WirePlane::Rows {
                    dim,
                    shards: &[rows.clone(), rows],
                },
                None,
            ),
            encode_exchange_request(
                n_slots,
                &WirePlane::Fused {
                    dim,
                    kind: AggKind::Max,
                    shards: std::slice::from_ref(&fused),
                },
                None,
            ),
            encode_concat_request(dim, Some(&[(&[9u64][..], &[2u32][..], &bucket)]), None),
            vec![OP_EXCHANGE, 0xFF],
        ];
        let mut server = FrameServer::default();
        for request in &requests {
            server.serve(request);
        }
        let warm = buffers(&server);
        for request in &requests {
            let fresh = serve_payload(request);
            assert_eq!(server.serve(request), &fresh[..]);
            assert_eq!(buffers(&server), warm, "a kept buffer moved");
        }
    }
}
