//! The transport wire protocol: length-prefixed request/response frames.
//!
//! # Frame format
//!
//! Every message on a worker pipe is one **frame**: a 4-byte little-endian
//! payload length followed by the payload. The payload is a
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
//! The child merges exactly like the in-process seal barrier: shards are
//! scattered in **ascending sender order, emission order within a
//! sender**; fused shards fold copy-on-first in ascending sender order;
//! legacy records are stably ordered slot-major (senders ascending within
//! a slot). Spill residency is *not* decided here — merged rows return
//! resident and the parent applies its
//! [`SpillPolicy`](inferturbo_common::rows::SpillPolicy) via
//! `RowArena::from_parts` / `FusedRows::from_parts`, so the spill fault
//! site and the memory model stay on the parent, identical to the
//! in-process backend.
//!
//! The protocol is strictly half-duplex per destination: the child reads
//! one whole frame, then writes one whole frame — no interleaving, so the
//! pipe can never deadlock on partial writes.

use inferturbo_common::codec::{Decode, Encode, WireReader, WireWriter};
use inferturbo_common::rows::{
    decode_rows_into, AggKind, FusedRows, FusedSlotShard, RowArena, RowBlock, RowShard,
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

/// Read one length-prefixed frame. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the pipe); an EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "pipe closed inside a frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
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

// ---- request decoding + merge (child side) --------------------------------

/// Serve one decoded request payload: decode, merge, encode the response.
/// Typed failures become [`STATUS_ERR`] frames; this function itself never
/// fails (a reply always goes back so the parent is never left blocked on
/// a vanished response).
pub fn serve_payload(payload: &[u8]) -> Vec<u8> {
    match try_serve(payload) {
        Ok(resp) => resp,
        Err(e) => encode_error(&e),
    }
}

fn try_serve(payload: &[u8]) -> Result<Vec<u8>> {
    let mut r = WireReader::new(payload);
    match r.get_u8()? {
        OP_EXCHANGE => serve_exchange(&mut r),
        OP_CONCAT => serve_concat(&mut r),
        op => Err(Error::Codec(format!("unknown transport opcode {op}"))),
    }
}

fn serve_exchange(r: &mut WireReader<'_>) -> Result<Vec<u8>> {
    let n_slots = r.get_varint()? as usize;
    let plane = r.get_u8()?;
    let mut w = WireWriter::new();
    w.put_u8(STATUS_OK);
    match plane {
        PLANE_NONE => w.put_u8(PLANE_NONE),
        PLANE_ROWS => {
            let dim = r.get_varint()? as usize;
            let shards = decode_shards::<RowShard>(r)?;
            for sh in &shards {
                check_slots(&sh.slots, n_slots)?;
            }
            // Seal exactly like the in-process barrier, but always
            // resident: spill residency is the parent's decision.
            let (offsets, data) = RowArena::seal(dim, n_slots, &shards, None)?.into_wire_parts()?;
            w.put_u8(PLANE_ROWS);
            w.put_varint(dim as u64);
            w.put_varint(offsets.len() as u64);
            for &o in &offsets {
                w.put_varint(o as u64);
            }
            w.put_f32_lanes(&data);
        }
        PLANE_FUSED => {
            let kind = AggKind::decode(r)?;
            let dim = r.get_varint()? as usize;
            let shards = decode_shards::<FusedSlotShard>(r)?;
            for sh in &shards {
                check_slots(&sh.keys, n_slots)?;
            }
            let (counts, acc) =
                FusedRows::merge(dim, n_slots, &shards, &kind, None)?.into_wire_parts()?;
            w.put_u8(PLANE_FUSED);
            w.put_varint(dim as u64);
            w.put_varint(counts.len() as u64);
            for &c in &counts {
                w.put_varint(c as u64);
            }
            w.put_f32_lanes(&acc);
        }
        p => return Err(Error::Codec(format!("unknown exchange plane tag {p}"))),
    }
    match decode_legacy_plane(r, |r| Ok((r.get_varint_u32()?, r.get_bytes()?)))? {
        None => w.put_u8(0),
        Some(senders) => {
            for sender in &senders {
                check_slots_iter(sender.iter().map(|&(s, _)| s), n_slots)?;
            }
            let merged = merge_legacy(senders);
            w.put_u8(1);
            w.put_varint(merged.len() as u64);
            for (slot, bytes) in &merged {
                w.put_varint(*slot as u64);
                w.put_bytes(bytes);
            }
        }
    }
    if !r.is_empty() {
        return Err(Error::Codec("trailing bytes after exchange request".into()));
    }
    Ok(w.into_bytes())
}

fn serve_concat(r: &mut WireReader<'_>) -> Result<Vec<u8>> {
    let dim = r.get_varint()? as usize;
    let mut w = WireWriter::new();
    w.put_u8(STATUS_OK);
    if r.get_u8()? == 1 {
        let claimed = r.get_varint()? as usize;
        let n_senders = checked_count(r, claimed)?;
        let (mut keys, mut counts, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n_senders {
            let claimed = r.get_varint()? as usize;
            let n = checked_count(r, claimed)?;
            for _ in 0..n {
                keys.push(r.get_varint()?);
            }
            for _ in 0..n {
                counts.push(r.get_varint_u32()?);
            }
            decode_rows_into(r, n, dim, &mut rows)?;
        }
        w.put_u8(1);
        w.put_varint(keys.len() as u64);
        for &k in &keys {
            w.put_varint(k);
        }
        for &c in &counts {
            w.put_varint(c as u64);
        }
        w.put_f32_slice(&rows);
    } else {
        w.put_u8(0);
    }
    match decode_legacy_plane(r, |r| Ok((r.get_varint()?, r.get_bytes()?)))? {
        None => w.put_u8(0),
        Some(senders) => {
            // Concatenation in ascending sender order IS the merge.
            let merged: Vec<(u64, Vec<u8>)> = senders.into_iter().flatten().collect();
            w.put_u8(1);
            w.put_varint(merged.len() as u64);
            for (key, bytes) in &merged {
                w.put_varint(*key);
                w.put_bytes(bytes);
            }
        }
    }
    if !r.is_empty() {
        return Err(Error::Codec("trailing bytes after concat request".into()));
    }
    Ok(w.into_bytes())
}

/// Stable slot-major ordering: senders arrive ascending and
/// `sort_by_key` is stable, so within a slot the records keep (sender
/// ascending, emission order) — exactly the in-process delivery order.
pub(super) fn merge_legacy(senders: Vec<EncodedRecords>) -> EncodedRecords {
    let mut all: EncodedRecords = senders.into_iter().flatten().collect();
    all.sort_by_key(|&(slot, _)| slot);
    all
}

fn decode_shards<T: Decode>(r: &mut WireReader<'_>) -> Result<Vec<T>> {
    let claimed = r.get_varint()? as usize;
    let n = checked_count(r, claimed)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(T::decode(r)?);
    }
    Ok(shards)
}

fn decode_legacy_plane<T>(
    r: &mut WireReader<'_>,
    mut rec: impl FnMut(&mut WireReader<'_>) -> Result<T>,
) -> Result<Option<Vec<Vec<T>>>> {
    if r.get_u8()? == 0 {
        return Ok(None);
    }
    let claimed = r.get_varint()? as usize;
    let n_senders = checked_count(r, claimed)?;
    let mut senders = Vec::with_capacity(n_senders);
    for _ in 0..n_senders {
        let claimed = r.get_varint()? as usize;
        let n = checked_count(r, claimed)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(rec(r)?);
        }
        senders.push(records);
    }
    Ok(Some(senders))
}

/// Validate a claimed element count against the bytes actually present
/// before allocating for it (every element is at least one byte).
fn checked_count(r: &WireReader<'_>, n: usize) -> Result<usize> {
    if n > r.remaining() {
        return Err(Error::Codec(format!(
            "frame claims {n} elements but only {} bytes remain",
            r.remaining()
        )));
    }
    Ok(n)
}

fn check_slots(slots: &[u32], n_slots: usize) -> Result<()> {
    check_slots_iter(slots.iter().copied(), n_slots)
}

fn check_slots_iter(slots: impl Iterator<Item = u32>, n_slots: usize) -> Result<()> {
    for s in slots {
        if s as usize >= n_slots {
            return Err(Error::Codec(format!(
                "destination slot {s} out of range for {n_slots} slots"
            )));
        }
    }
    Ok(())
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
            let claimed = r.get_varint()? as usize;
            let n = checked_count(&r, claimed)?;
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
            let claimed = r.get_varint()? as usize;
            let n = checked_count(&r, claimed)?;
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
            let claimed = r.get_varint()? as usize;
            let n = checked_count(&r, claimed)?;
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
            let claimed = r.get_varint()? as usize;
            let n = checked_count(&r, claimed)?;
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
            let claimed = r.get_varint()? as usize;
            let n = checked_count(&r, claimed)?;
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
    w.into_bytes()
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
