//! Pluggable shuffle transport: who moves sealed shards between workers.
//!
//! # Trait contract
//!
//! Both engines hand their per-superstep (Pregel) / per-round (MapReduce)
//! shuffle to a [`Transport`] at the barrier:
//!
//! - [`Transport::exchange`] moves one superstep's per-(sender ×
//!   destination) shards — columnar [`RowShard`]s, fused
//!   [`FusedSlotShard`]s, and optionally pre-encoded legacy records — to
//!   their destinations and performs the **destination-side merge**
//!   (counting-scatter seal / copy-on-first fused fold / slot-major legacy
//!   scatter). What a backend is handed depends on
//!   [`Transport::needs_bytes`]. A backend that moves bytes gets every
//!   plane: fused shards, materialized rows packed into [`RowShard`]s,
//!   and the typed plane encoded. A backend that does not gets the fused
//!   shards only: materialized rows arrive as [`ColsShards::None`] and
//!   stay in the senders' row tables, which the Pregel engine seals into
//!   reference inboxes itself ([`RowArena::seal_refs`]), and the typed
//!   plane never leaves the engine. The call still happens every
//!   superstep, so the fault sites below fire per destination either way.
//! - [`Transport::exchange_concat`] is the MapReduce form: per-destination
//!   concatenation of fused key buckets and legacy records in ascending
//!   mapper order. The batch engine hands it buckets and records only when
//!   the backend [`Transport::needs_bytes`]; otherwise rows stay in the
//!   mappers' spools and typed records in the engine, and the call carries
//!   empty destinations (it still marks the round's barrier).
//!
//! The contract every backend must honour, and the acceptance bar the
//! equivalence suite pins:
//!
//! 1. **Merge order**: shards merge in ascending sender order, emission
//!    order within a sender — the serial delivery order. Fused folds are
//!    copy-on-first, ascending senders. Legacy records order slot-major,
//!    (sender, emission) within a slot.
//! 2. **Bit-identity**: logits, traces, counts and byte accounting (other
//!    than [`ExchangeOut::wire_bytes`]) are identical across backends at
//!    every thread/process count, including under forced spill and fault
//!    replay.
//! 3. **Fault sites**: the `SealBarrier` and `SpillWrite` fault sites of
//!    [`FaultInjector`] fire *inside* the exchange, per destination in
//!    ascending order, before any merge work for that destination — so
//!    PR 6's recovery contract (checkpoint/replay around the seal
//!    barrier) holds unchanged under every backend.
//! 4. **Spill residency is decided on the engine side**: merged rows
//!    spill under the engine's [`SpillPolicy`] after the merge, never on
//!    a remote worker, so the memory model and the `SpillRead`/`SpillWrite`
//!    fault sites stay with the engine process.
//!
//! # Backends
//!
//! A backend is chosen by handing one to an engine (`with_transport`), a
//! session (`SessionBuilder::transport`) or a server
//! (`ServeConfig::transport`); nobody choosing means [`InProcess`]. The
//! one ambient input is a path: `INFERTURBO_WORKER_BIN` tells
//! [`WorkerProcess::new`] where the child binary lives.
//!
//! - [`InProcess`] — the default, a lock-free move: what it is handed is
//!   borrowed and merged on the spot ([`FusedRows::merge`]; rows handed as
//!   shards by other callers, [`RowArena::seal`]). It copies no row: the
//!   engines hand it no materialized rows — the Pregel engine's inboxes
//!   lend them from the senders' row tables, and the batch engine keeps
//!   them in the mappers' spools — so a row is written once per sending
//!   vertex, never once per edge. Zero wire bytes, bit-identical to the
//!   byte-moving backend by construction.
//! - [`WorkerProcess`] — one spawned `itworker` child per concurrent
//!   destination (pooled and reused), speaking length-prefixed
//!   [`frame`]s over a Unix socket pair whose child end is the child's
//!   stdin and stdout. Shards cross through the workspace `Encode` codec
//!   (exact IEEE-754 bit patterns), the child merges straight from the
//!   request bytes into buffers it keeps across frames, and the merged
//!   planes come back in one response frame.
//!   [`ExchangeOut::wire_bytes`] counts the real bytes that crossed. This
//!   backend is Unix-only; the workspace is built and tested on Linux.
//!
//! # Failure model
//!
//! A torn stream — the child died, or wrote garbage framing — surfaces as
//! [`Error::WorkerLost`] for that destination, which
//! [`Error::is_transient`] marks retryable: under a recovery policy the
//! engine replays the superstep and the transport spawns a replacement
//! child. Typed merge failures (capacity, codec — a malformed frame,
//! including a shard whose width is not its plane's) travel back inside
//! the response frame and surface as the same [`Error`] variant the
//! in-process merge would have produced, so permanent errors are never
//! retried. Fused aggregators without a wire identity
//! ([`FusedAggregator::wire_kind`] returning `None`) merge locally on the
//! engine side instead of crossing to a child — correct for any
//! aggregator, it just moves no fused bytes for that destination.
//!
//! Broadcast tables are control plane, not shuffle: they stay in-process
//! at the barrier under every backend (the multi-host follow-on in
//! ROADMAP direction 5 owns moving them).

pub mod frame;
mod spawn;

use frame::{EncodedKeyRecords, EncodedRecords, MergedWire, WirePlane};
use inferturbo_common::par::par_map;
use inferturbo_common::rows::{
    FusedAggregator, FusedRows, FusedSlotShard, RowArena, RowBlock, RowShard, SpillPolicy,
};
use inferturbo_common::{Error, Result};
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::fault::FaultInjector;

/// One destination's share of a Pregel seal-barrier exchange.
pub struct DestShards<'a> {
    /// Destination worker's slot count (vertex count).
    pub n_slots: usize,
    /// Columnar shards, per sender in ascending order.
    pub cols: ColsShards<'a>,
    /// Pre-encoded legacy records per sender (emission order), present
    /// only when the backend [`Transport::needs_bytes`]; `None` keeps the
    /// typed legacy plane on the engine side.
    pub legacy: Option<Vec<EncodedRecords>>,
}

/// The columnar plane of one destination, borrowed from the engine.
pub enum ColsShards<'a> {
    None,
    Rows {
        dim: usize,
        shards: &'a [RowShard],
    },
    Fused {
        dim: usize,
        agg: &'a dyn FusedAggregator,
        shards: &'a [FusedSlotShard],
    },
}

/// One Pregel seal-barrier exchange: every destination's shards, plus the
/// engine context the fault/spill contract needs.
pub struct Exchange<'a> {
    pub step: usize,
    pub faults: Option<&'a FaultInjector>,
    pub spill: Option<&'a SpillPolicy>,
    pub dests: Vec<DestShards<'a>>,
}

/// One destination's merged inbox planes.
#[derive(Debug)]
pub struct DestMerged {
    pub cols: MergedCols,
    /// Merged legacy records in slot-major delivery order (only when the
    /// exchange carried encoded legacy records).
    pub legacy: Option<EncodedRecords>,
}

#[derive(Debug)]
pub enum MergedCols {
    None,
    Rows(RowArena),
    Fused(FusedRows),
}

#[derive(Debug)]
pub struct ExchangeOut {
    /// Merged planes, one per destination, ascending.
    pub dests: Vec<DestMerged>,
    /// Bytes that actually crossed a process boundary (0 in-process).
    /// Deterministic for a given run — a pure function of the shuffled
    /// data — but *not* part of the cross-backend bit-identity bar.
    pub wire_bytes: u64,
}

/// One mapper's fused bucket for one destination partition (MapReduce).
pub struct BucketRef<'a> {
    pub keys: &'a [u64],
    pub counts: &'a [u32],
    pub rows: &'a RowBlock,
}

/// One destination partition's share of a MapReduce merge.
pub struct ConcatDest<'a> {
    pub dim: usize,
    /// Fused key buckets per mapper, ascending.
    pub buckets: Option<Vec<BucketRef<'a>>>,
    /// Pre-encoded legacy records per mapper (byte-moving backends only).
    pub legacy: Option<Vec<EncodedKeyRecords>>,
}

pub struct ConcatExchange<'a> {
    pub dests: Vec<ConcatDest<'a>>,
}

/// A concatenated fused bucket (ascending mapper order).
#[derive(Debug)]
pub struct BucketOut {
    pub keys: Vec<u64>,
    pub counts: Vec<u32>,
    pub rows: RowBlock,
}

#[derive(Debug)]
pub struct ConcatMerged {
    pub bucket: Option<BucketOut>,
    pub legacy: Option<EncodedKeyRecords>,
}

#[derive(Debug)]
pub struct ConcatOut {
    pub dests: Vec<ConcatMerged>,
    pub wire_bytes: u64,
}

/// Moves sealed shuffle shards from senders to destination workers and
/// merges them there. See the module docs for the full contract.
pub trait Transport: fmt::Debug + Send + Sync {
    fn name(&self) -> &'static str;

    /// Whether the backend moves bytes between processes. When true, the
    /// engines pre-encode their typed legacy plane into per-record bytes
    /// (and decode the merged records on return); when false the typed
    /// plane never leaves the engine.
    fn needs_bytes(&self) -> bool {
        false
    }

    /// Pregel seal-barrier exchange. Destinations are independent;
    /// failures surface for the lowest failing destination, unwrapped —
    /// the engine owns phase attribution.
    fn exchange(&self, ex: Exchange<'_>) -> Result<ExchangeOut>;

    /// MapReduce merge: per-destination concatenation in ascending mapper
    /// order.
    fn exchange_concat(&self, ex: ConcatExchange<'_>) -> Result<ConcatOut>;
}

/// Fire the seal-barrier fault sites for destination `w2`, in the exact
/// order the pre-transport barrier fired them: `SealBarrier` first, then
/// `SpillWrite` (only when a spill policy is armed), both before any
/// merge work for the destination.
fn fire_seal_faults(
    w2: usize,
    step: usize,
    faults: Option<&FaultInjector>,
    spill: Option<&SpillPolicy>,
) -> Result<()> {
    if let Some(inj) = faults {
        if let Some(e) = inj.seal(w2, step) {
            return Err(e);
        }
        if let Some(policy) = spill {
            if let Some(e) = inj.spill_write(w2, step, &policy.dir) {
                return Err(e);
            }
        }
    }
    Ok(())
}

fn collect_ascending<T>(results: Vec<Result<(T, u64)>>) -> Result<(Vec<T>, u64)> {
    let mut out = Vec::with_capacity(results.len());
    let mut wire = 0u64;
    for r in results {
        let (m, b) = r?;
        out.push(m);
        wire += b;
    }
    Ok((out, wire))
}

// ---- in-process backend ----------------------------------------------------

/// The zero-copy backend: shards never leave the process; merges run
/// fork-join across destinations exactly like the pre-transport barrier.
#[derive(Debug, Default, Clone, Copy)]
pub struct InProcess;

impl Transport for InProcess {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn exchange(&self, ex: Exchange<'_>) -> Result<ExchangeOut> {
        let Exchange {
            step,
            faults,
            spill,
            dests,
        } = ex;
        let results = par_map(dests, |w2, d| {
            fire_seal_faults(w2, step, faults, spill)?;
            let cols = match d.cols {
                ColsShards::None => MergedCols::None,
                ColsShards::Rows { dim, shards } => {
                    MergedCols::Rows(RowArena::seal(dim, d.n_slots, shards, spill)?)
                }
                ColsShards::Fused { dim, agg, shards } => {
                    MergedCols::Fused(FusedRows::merge(dim, d.n_slots, shards, agg, spill)?)
                }
            };
            // Engines only encode legacy for byte-moving backends, but
            // accept it anyway: the merge semantics don't depend on the
            // backend.
            let legacy = d.legacy.map(frame::merge_legacy);
            Ok((DestMerged { cols, legacy }, 0u64))
        });
        let (dests, wire_bytes) = collect_ascending(results)?;
        Ok(ExchangeOut { dests, wire_bytes })
    }

    fn exchange_concat(&self, ex: ConcatExchange<'_>) -> Result<ConcatOut> {
        let results = par_map(ex.dests, |_w2, d| Ok((concat_local(d), 0u64)));
        let (dests, wire_bytes) = collect_ascending(results)?;
        Ok(ConcatOut { dests, wire_bytes })
    }
}

fn concat_local(d: ConcatDest<'_>) -> ConcatMerged {
    let bucket = d.buckets.map(|senders| {
        let mut out = BucketOut {
            keys: Vec::new(),
            counts: Vec::new(),
            rows: RowBlock::new(d.dim),
        };
        for b in senders {
            out.keys.extend_from_slice(b.keys);
            out.counts.extend_from_slice(b.counts);
            out.rows.append(b.rows);
        }
        out
    });
    let legacy = d
        .legacy
        .map(|senders| senders.into_iter().flatten().collect());
    ConcatMerged { bucket, legacy }
}

// ---- worker-process backend ------------------------------------------------

/// The spawned-worker-process backend: each destination's merge runs in an
/// `itworker` child reached over a Unix socket. Children are pooled —
/// checked out per destination, returned on success, killed and replaced
/// on a stream failure. See the module docs for wire format and failure
/// model.
pub struct WorkerProcess {
    bin: Option<PathBuf>,
    pool: Mutex<Vec<spawn::WorkerHandle>>,
}

impl fmt::Debug for WorkerProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerProcess")
            .field("bin", &self.bin)
            .finish_non_exhaustive()
    }
}

impl Default for WorkerProcess {
    fn default() -> Self {
        WorkerProcess::new()
    }
}

impl WorkerProcess {
    /// Locate the worker binary (the `INFERTURBO_WORKER_BIN` override,
    /// else `itworker` next to the current executable). Nothing is
    /// spawned until the first exchange needs a child.
    pub fn new() -> Self {
        let bin = spawn::worker_bin_override().or_else(spawn::default_worker_bin);
        WorkerProcess {
            bin,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Use an explicit worker binary path.
    pub fn with_bin(bin: PathBuf) -> Self {
        WorkerProcess {
            bin: Some(bin),
            pool: Mutex::new(Vec::new()),
        }
    }

    fn checkout(&self) -> Result<spawn::WorkerHandle> {
        if let Some(h) = self.lock_pool().pop() {
            return Ok(h);
        }
        let bin = self.bin.as_ref().ok_or_else(|| {
            Error::Internal(
                "transport worker binary not found; build the `itworker` bin \
                 (cargo build -p inferturbo-cluster --bin itworker) or set \
                 INFERTURBO_WORKER_BIN"
                    .into(),
            )
        })?;
        spawn::spawn_worker(bin)
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Vec<spawn::WorkerHandle>> {
        // A poisoned pool only means another exchange failed mid-merge;
        // the handles themselves are each in a consistent (frame-aligned)
        // state, so keep using them.
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One half-duplex request/response cycle against a pooled child.
    /// Returns the response payload and the bytes that crossed the socket
    /// (both frames, length prefixes included). Any I/O failure retires
    /// the child and surfaces as a transient [`Error::WorkerLost`].
    fn roundtrip(&self, worker: usize, request: &[u8]) -> Result<(Vec<u8>, u64)> {
        let mut h = self.checkout()?;
        let io = (|| -> std::io::Result<Vec<u8>> {
            frame::write_frame(&mut h.writer, request)?;
            frame::read_frame(&mut h.reader)?.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "worker closed the socket before replying",
                )
            })
        })();
        match io {
            Ok(resp) => {
                let wire = (request.len() + resp.len() + 8) as u64;
                self.lock_pool().push(h);
                Ok((resp, wire))
            }
            // Dropping the handle kills and reaps the child; WorkerLost is
            // transient, so a recovery policy replays the superstep and
            // the next checkout spawns a replacement.
            Err(e) => Err(Error::WorkerLost {
                worker,
                detail: format!("transport stream failure: {e}"),
            }),
        }
    }

    fn exchange_dest(
        &self,
        w2: usize,
        step: usize,
        faults: Option<&FaultInjector>,
        spill: Option<&SpillPolicy>,
        d: DestShards<'_>,
    ) -> Result<(DestMerged, u64)> {
        fire_seal_faults(w2, step, faults, spill)?;
        // An aggregator without a wire identity merges on the engine side;
        // everything else ships.
        let (plane, local_cols) = match &d.cols {
            ColsShards::None => (WirePlane::None, None),
            ColsShards::Rows { dim, shards } => (WirePlane::Rows { dim: *dim, shards }, None),
            ColsShards::Fused { dim, agg, shards } => match agg.wire_kind() {
                Some(kind) => (
                    WirePlane::Fused {
                        dim: *dim,
                        kind,
                        shards,
                    },
                    None,
                ),
                None => (
                    WirePlane::None,
                    Some(MergedCols::Fused(FusedRows::merge(
                        *dim, d.n_slots, shards, *agg, spill,
                    )?)),
                ),
            },
        };
        if matches!(plane, WirePlane::None) && d.legacy.is_none() {
            return Ok((
                DestMerged {
                    cols: local_cols.unwrap_or(MergedCols::None),
                    legacy: None,
                },
                0,
            ));
        }
        let request = frame::encode_exchange_request(d.n_slots, &plane, d.legacy.as_deref());
        let (resp, wire) = self.roundtrip(w2, &request)?;
        let resp = frame::decode_exchange_response(&resp)?;
        let cols = match resp.cols {
            MergedWire::None => local_cols.unwrap_or(MergedCols::None),
            // Residency is decided here, parent-side, with the engine's
            // own spill policy — identical to the in-process seal.
            MergedWire::Rows { dim, offsets, data } => {
                MergedCols::Rows(RowArena::from_parts(dim, offsets, data, spill)?)
            }
            MergedWire::Fused { dim, counts, acc } => {
                MergedCols::Fused(FusedRows::from_parts(dim, counts, acc, spill)?)
            }
        };
        Ok((
            DestMerged {
                cols,
                legacy: resp.legacy,
            },
            wire,
        ))
    }

    fn concat_dest(&self, w2: usize, d: ConcatDest<'_>) -> Result<(ConcatMerged, u64)> {
        if d.buckets.is_none() && d.legacy.is_none() {
            return Ok((concat_local(d), 0));
        }
        let refs: Option<Vec<frame::BucketRefs<'_>>> = d
            .buckets
            .as_ref()
            .map(|senders| senders.iter().map(|b| (b.keys, b.counts, b.rows)).collect());
        let request = frame::encode_concat_request(d.dim, refs.as_deref(), d.legacy.as_deref());
        let (resp, wire) = self.roundtrip(w2, &request)?;
        let resp = frame::decode_concat_response(&resp)?;
        let bucket = match resp.bucket {
            None => None,
            Some((keys, counts, data)) => Some(BucketOut {
                keys,
                counts,
                rows: RowBlock::from_parts(d.dim, data)?,
            }),
        };
        Ok((
            ConcatMerged {
                bucket,
                legacy: resp.legacy,
            },
            wire,
        ))
    }
}

impl Transport for WorkerProcess {
    fn name(&self) -> &'static str {
        "worker-process"
    }

    fn needs_bytes(&self) -> bool {
        true
    }

    fn exchange(&self, ex: Exchange<'_>) -> Result<ExchangeOut> {
        let Exchange {
            step,
            faults,
            spill,
            dests,
        } = ex;
        let results = par_map(dests, |w2, d| {
            self.exchange_dest(w2, step, faults, spill, d)
        });
        let (dests, wire_bytes) = collect_ascending(results)?;
        Ok(ExchangeOut { dests, wire_bytes })
    }

    fn exchange_concat(&self, ex: ConcatExchange<'_>) -> Result<ConcatOut> {
        let results = par_map(ex.dests, |w2, d| self.concat_dest(w2, d));
        let (dests, wire_bytes) = collect_ascending(results)?;
        Ok(ConcatOut { dests, wire_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use inferturbo_common::rows::AggKind;

    fn row_shards(dim: usize) -> Vec<RowShard> {
        let mut a = RowShard::new(dim);
        a.push(2, &[1.0, -2.5]);
        a.push(0, &[0.5, f32::MIN_POSITIVE]);
        a.push(2, &[3.25, 4.0]);
        let mut b = RowShard::new(dim);
        b.push(1, &[-0.0, 7.75]);
        b.push(2, &[9.0, -9.0]);
        vec![a, b]
    }

    fn fused_shards(dim: usize, n_slots: usize) -> Vec<FusedSlotShard> {
        let sum = AggKind::Sum;
        let mut a = FusedSlotShard::new(dim, n_slots);
        a.accumulate(1, &[1.0, 2.0], 1, &sum);
        a.accumulate(3, &[0.25, -0.5], 2, &sum);
        a.accumulate(1, &[4.0, 8.0], 1, &sum);
        let mut b = FusedSlotShard::new(dim, n_slots);
        b.accumulate(3, &[10.0, 20.0], 1, &sum);
        vec![a, b]
    }

    fn legacy_records() -> Vec<EncodedRecords> {
        vec![
            vec![(2, vec![0xAA]), (0, vec![0xBB, 0xBC]), (2, vec![0xCC])],
            vec![(2, vec![0xDD]), (1, vec![0xEE])],
        ]
    }

    #[test]
    fn in_process_exchange_matches_direct_merges_bitwise() {
        let (dim, n_slots) = (2, 4);
        let rows = row_shards(dim);
        let fused = fused_shards(dim, n_slots);
        let sum = AggKind::Sum;
        let out = InProcess
            .exchange(Exchange {
                step: 0,
                faults: None,
                spill: None,
                dests: vec![
                    DestShards {
                        n_slots,
                        cols: ColsShards::Rows { dim, shards: &rows },
                        legacy: Some(legacy_records()),
                    },
                    DestShards {
                        n_slots,
                        cols: ColsShards::Fused {
                            dim,
                            agg: &sum,
                            shards: &fused,
                        },
                        legacy: None,
                    },
                ],
            })
            .unwrap();
        assert_eq!(out.wire_bytes, 0);
        assert_eq!(out.dests.len(), 2);

        let mut direct = RowArena::seal(dim, n_slots, &rows, None).unwrap();
        match &mut out.dests.into_iter().next().unwrap() {
            DestMerged {
                cols: MergedCols::Rows(arena),
                legacy: Some(merged),
            } => {
                for slot in 0..n_slots {
                    assert_eq!(
                        arena.rows(slot).unwrap().to_vec(),
                        direct.rows(slot).unwrap().to_vec()
                    );
                }
                // Slot-major, (sender asc, emission order) within a slot.
                assert_eq!(
                    merged,
                    &vec![
                        (0, vec![0xBB, 0xBC]),
                        (1, vec![0xEE]),
                        (2, vec![0xAA]),
                        (2, vec![0xCC]),
                        (2, vec![0xDD]),
                    ]
                );
            }
            _ => panic!("expected merged rows + legacy"),
        }
    }

    #[test]
    fn frame_round_trip_reproduces_the_local_seal_bitwise() {
        let (dim, n_slots) = (2, 4);
        let rows = row_shards(dim);
        let request = frame::encode_exchange_request(
            n_slots,
            &WirePlane::Rows { dim, shards: &rows },
            Some(&legacy_records()),
        );
        let response = frame::serve_payload(&request);
        let resp = frame::decode_exchange_response(&response).unwrap();
        let MergedWire::Rows {
            dim: d,
            offsets,
            data,
        } = resp.cols
        else {
            panic!("expected a rows plane back");
        };
        assert_eq!(d, dim);
        let mut wire = RowArena::from_parts(d, offsets, data, None).unwrap();
        let mut direct = RowArena::seal(dim, n_slots, &rows, None).unwrap();
        for slot in 0..n_slots {
            assert_eq!(
                wire.rows(slot).unwrap().to_vec(),
                direct.rows(slot).unwrap().to_vec()
            );
        }
        assert_eq!(resp.legacy.unwrap().len(), 5);
    }

    #[test]
    fn fused_frame_round_trip_matches_local_merge_bitwise() {
        let (dim, n_slots) = (2, 4);
        let fused = fused_shards(dim, n_slots);
        let request = frame::encode_exchange_request(
            n_slots,
            &WirePlane::Fused {
                dim,
                kind: AggKind::Sum,
                shards: &fused,
            },
            None,
        );
        let resp = frame::decode_exchange_response(&frame::serve_payload(&request)).unwrap();
        let MergedWire::Fused {
            dim: d,
            counts,
            acc,
        } = resp.cols
        else {
            panic!("expected a fused plane back");
        };
        let mut wire = FusedRows::from_parts(d, counts, acc, None).unwrap();
        let mut direct = FusedRows::merge(dim, n_slots, &fused, &AggKind::Sum, None).unwrap();
        for slot in 0..n_slots {
            assert_eq!(wire.count(slot), direct.count(slot));
            assert_eq!(wire.row(slot).unwrap(), direct.row(slot).unwrap());
        }
    }

    #[test]
    fn concat_round_trip_concatenates_in_mapper_order() {
        let dim = 2;
        let mut r1 = RowBlock::new(dim);
        r1.push_row(&[1.0, 2.0]);
        let mut r2 = RowBlock::new(dim);
        r2.push_row(&[3.0, 4.0]);
        r2.push_row(&[5.0, 6.0]);
        let k1 = [7u64];
        let c1 = [2u32];
        let k2 = [8u64, 9];
        let c2 = [1u32, 3];
        let request = frame::encode_concat_request(
            dim,
            Some(&[(&k1[..], &c1[..], &r1), (&k2[..], &c2[..], &r2)]),
            Some(&[vec![(7, vec![1])], vec![(9, vec![2, 3])]]),
        );
        let resp = frame::decode_concat_response(&frame::serve_payload(&request)).unwrap();
        let (keys, counts, data) = resp.bucket.unwrap();
        assert_eq!(keys, vec![7, 8, 9]);
        assert_eq!(counts, vec![2, 1, 3]);
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(resp.legacy.unwrap(), vec![(7, vec![1]), (9, vec![2, 3])]);
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        for e in [
            Error::Capacity("too big".into()),
            Error::Codec("bad tag".into()),
            Error::Io("disk gone".into()),
            Error::Internal("invariant".into()),
        ] {
            let payload = frame::encode_error(&e);
            let back = frame::decode_exchange_response(&payload).unwrap_err();
            assert_eq!(back.to_string(), e.to_string());
        }
    }

    #[test]
    fn corrupt_frames_come_back_as_codec_error_frames_not_panics() {
        // Out-of-range destination slot: the child must reject it before
        // the merge would index out of bounds.
        let mut sh = RowShard::new(1);
        sh.push(40, &[1.0]);
        let shards = [sh];
        let request = frame::encode_exchange_request(
            2,
            &WirePlane::Rows {
                dim: 1,
                shards: &shards,
            },
            None,
        );
        let err = frame::decode_exchange_response(&frame::serve_payload(&request)).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "got {err:?}");
        // Truncated request: decode fails typed, reply still arrives.
        let err =
            frame::decode_exchange_response(&frame::serve_payload(&request[..request.len() / 2]))
                .unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "got {err:?}");
        // A shard narrower than its plane, on both planes: the child must
        // reject it before a row of the wrong width reaches the merge.
        let narrow_rows = row_shards(2);
        let narrow_fused = fused_shards(2, 4);
        for plane in [
            WirePlane::Rows {
                dim: 3,
                shards: &narrow_rows,
            },
            WirePlane::Fused {
                dim: 3,
                kind: AggKind::Sum,
                shards: &narrow_fused,
            },
        ] {
            let request = frame::encode_exchange_request(4, &plane, None);
            let err = frame::decode_exchange_response(&frame::serve_payload(&request)).unwrap_err();
            assert!(
                matches!(&err, Error::Codec(m) if m.contains("width 2 in a plane of width 3")),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn seal_faults_fire_inside_the_exchange_per_destination() {
        let plan = FaultPlan::parse("seal:1@step:3").unwrap();
        let inj = plan.injector();
        let dests = || {
            (0..2)
                .map(|_| DestShards {
                    n_slots: 1,
                    cols: ColsShards::None,
                    legacy: None,
                })
                .collect()
        };
        let err = InProcess
            .exchange(Exchange {
                step: 3,
                faults: Some(&inj),
                spill: None,
                dests: dests(),
            })
            .unwrap_err();
        assert!(err.is_transient(), "seal fault must be retryable: {err:?}");
        // Budget spent: the replay succeeds.
        assert!(InProcess
            .exchange(Exchange {
                step: 3,
                faults: Some(&inj),
                spill: None,
                dests: dests(),
            })
            .is_ok());
    }
}
