//! Property coverage for the transport wire framing: whatever shard set a
//! parent encodes, the child-side serve path must hand back exactly what
//! the in-process seal barrier would have produced — bit-for-bit, NaN
//! payloads included — and hostile bytes must come back as typed errors,
//! never as panics or hangs.
//!
//! The direct `u32` row-capacity boundary (`check_u32_row_capacity`) is
//! unit-tested next to its definition in `inferturbo_common::rows`; here
//! we pin the *wire* half of that story: a child that hits the ceiling
//! mid-merge must deliver `Error::Capacity` to the parent intact, not a
//! stringly `Internal`.

use std::io::{Cursor, ErrorKind};

use inferturbo_cluster::transport::frame::{
    decode_concat_response, decode_exchange_response, encode_concat_request, encode_error,
    encode_exchange_request, read_frame, read_frame_into, serve_payload, write_frame, FrameServer,
    MergedWire, WirePlane, STATUS_ERR, STATUS_OK,
};
use inferturbo_common::rows::{AggKind, FusedRows, FusedSlotShard, RowArena, RowBlock, RowShard};
use inferturbo_common::{Encode, Error, WireWriter};
use proptest::prelude::*;
use proptest::TestRng;

/// Random f32 bit patterns — exercises NaN/inf through the codec, where a
/// value-level comparison would hide a lossy round-trip.
fn rand_f32(rng: &mut TestRng) -> f32 {
    f32::from_bits(rng.next_u64() as u32)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn rand_row_shards(
    rng: &mut TestRng,
    n_senders: usize,
    dim: usize,
    n_slots: usize,
) -> Vec<RowShard> {
    (0..n_senders)
        .map(|_| {
            let mut sh = RowShard::new(dim);
            // Zero-row senders are a legal, common case (idle workers).
            for _ in 0..rng.below(20) {
                let slot = rng.below(n_slots as u64) as u32;
                let row: Vec<f32> = (0..dim).map(|_| rand_f32(rng)).collect();
                sh.push(slot, &row);
            }
            sh
        })
        .collect()
}

fn rand_fused_shards(
    rng: &mut TestRng,
    n_senders: usize,
    dim: usize,
    n_slots: usize,
) -> Vec<FusedSlotShard> {
    (0..n_senders)
        .map(|_| {
            // Distinct keys per shard, as a real sender-side spool produces
            // (each slot folds locally into one partial row).
            let mut keys: Vec<u32> = (0..n_slots as u32).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i as u64 + 1) as usize);
            }
            keys.truncate(rng.below(n_slots as u64 + 1) as usize);
            let mut shard = FusedSlotShard::new(dim, n_slots);
            for key in keys {
                let row: Vec<f32> = (0..dim).map(|_| rand_f32(rng)).collect();
                shard.accumulate(key, &row, 1 + rng.below(100) as u32, &AggKind::Sum);
            }
            shard
        })
        .collect()
}

type Bucket = (Vec<u64>, Vec<u32>, RowBlock);

fn rand_buckets(rng: &mut TestRng, n_senders: usize, dim: usize) -> Vec<Bucket> {
    (0..n_senders)
        .map(|_| {
            let n = rng.below(10) as usize;
            let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let counts: Vec<u32> = (0..n).map(|_| rng.below(1000) as u32).collect();
            let mut rows = RowBlock::new(dim);
            for _ in 0..n {
                let row: Vec<f32> = (0..dim).map(|_| rand_f32(rng)).collect();
                rows.push_row(&row);
            }
            (keys, counts, rows)
        })
        .collect()
}

fn bucket_refs(senders: &[Bucket]) -> Vec<(&[u64], &[u32], &RowBlock)> {
    senders
        .iter()
        .map(|(k, c, r)| (k.as_slice(), c.as_slice(), r))
        .collect()
}

fn rand_key_records(rng: &mut TestRng, n_senders: usize) -> Vec<Vec<(u64, Vec<u8>)>> {
    (0..n_senders)
        .map(|_| {
            (0..rng.below(6))
                .map(|_| (rng.next_u64(), vec![rng.next_u64() as u8]))
                .collect()
        })
        .collect()
}

fn rand_slot_records(
    rng: &mut TestRng,
    n_senders: usize,
    n_slots: usize,
) -> Vec<Vec<(u32, Vec<u8>)>> {
    (0..n_senders)
        .map(|_| {
            (0..rng.below(6))
                .map(|_| {
                    let slot = rng.below(n_slots as u64) as u32;
                    (slot, vec![rng.next_u64() as u8; rng.below(4) as usize])
                })
                .collect()
        })
        .collect()
}

/// Any request a child may meet: an exchange on each plane with or
/// without a legacy plane, a concat with or without either half, a valid
/// request cut short, or garbage.
fn rand_request(rng: &mut TestRng) -> Vec<u8> {
    let dim = rng.below(6) as usize;
    let n_slots = 1 + rng.below(12) as usize;
    let n_senders = rng.below(4) as usize;
    let legacy = (rng.below(2) == 0).then(|| rand_slot_records(rng, n_senders, n_slots));
    let legacy = legacy.as_deref();
    match rng.below(7) {
        0 => encode_exchange_request(n_slots, &WirePlane::None, legacy),
        1 => {
            let shards = rand_row_shards(rng, n_senders, dim, n_slots);
            encode_exchange_request(
                n_slots,
                &WirePlane::Rows {
                    dim,
                    shards: &shards,
                },
                legacy,
            )
        }
        2 => {
            let kind = if rng.below(2) == 0 {
                AggKind::Sum
            } else {
                AggKind::Max
            };
            let shards = rand_fused_shards(rng, n_senders, dim, n_slots);
            encode_exchange_request(
                n_slots,
                &WirePlane::Fused {
                    dim,
                    kind,
                    shards: &shards,
                },
                legacy,
            )
        }
        3 => {
            let buckets = rand_buckets(rng, n_senders, dim);
            let refs = bucket_refs(&buckets);
            let key_legacy = rand_key_records(rng, n_senders);
            encode_concat_request(
                dim,
                (rng.below(2) == 0).then_some(&refs[..]),
                (rng.below(2) == 0).then_some(&key_legacy[..]),
            )
        }
        4 => (0..rng.below(120)).map(|_| rng.next_u64() as u8).collect(),
        5 => {
            let shards = rand_fused_shards(rng, n_senders.max(1), dim.max(1), n_slots);
            let mut request = encode_exchange_request(
                n_slots,
                &WirePlane::Fused {
                    dim: dim.max(1),
                    kind: AggKind::Sum,
                    shards: &shards,
                },
                legacy,
            );
            request.truncate(rng.below(request.len() as u64) as usize);
            request
        }
        _ => {
            let shards = rand_row_shards(rng, n_senders.max(1), dim, n_slots);
            let mut request = encode_exchange_request(
                n_slots,
                &WirePlane::Rows {
                    dim,
                    shards: &shards,
                },
                legacy,
            );
            request.truncate(rng.below(request.len() as u64) as usize);
            request
        }
    }
}

/// One full request → serve → response cycle for a rows plane, compared
/// bit-exactly against the in-process seal the child is specified to mirror.
fn assert_rows_cycle(dim: usize, n_slots: usize, shards: &[RowShard]) {
    let req = encode_exchange_request(n_slots, &WirePlane::Rows { dim, shards }, None);
    let resp = serve_payload(&req);
    let out = decode_exchange_response(&resp).expect("rows exchange must decode");
    let (want_offsets, want_data) = RowArena::seal(dim, n_slots, shards, None)
        .expect("reference seal")
        .into_wire_parts()
        .expect("resident arena");
    match out.cols {
        MergedWire::Rows {
            dim: got_dim,
            offsets,
            data,
        } => {
            assert_eq!(got_dim, dim);
            assert_eq!(offsets, want_offsets);
            assert_eq!(bits(&data), bits(&want_data));
        }
        other => panic!("expected rows plane back, got {other:?}"),
    }
    assert!(out.legacy.is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rows-plane exchange: serve == in-process seal, bit-for-bit, for
    /// arbitrary shard sets — including zero senders and zero-row senders.
    #[test]
    fn prop_rows_exchange_matches_in_process_seal(
        seed in any::<u64>(),
        dim in 1usize..8,
        n_slots in 1usize..16,
        n_senders in 0usize..5,
    ) {
        let mut rng = TestRng::new(seed);
        let shards = rand_row_shards(&mut rng, n_senders, dim, n_slots);
        assert_rows_cycle(dim, n_slots, &shards);
        prop_assert!(true);
    }

    /// Fused-plane exchange: serve == in-process `FusedRows::merge` for
    /// both aggregator kinds, bit-for-bit (copy-on-first fold order).
    #[test]
    fn prop_fused_exchange_matches_in_process_merge(
        seed in any::<u64>(),
        dim in 1usize..8,
        n_slots in 1usize..12,
        n_senders in 0usize..5,
    ) {
        let mut rng = TestRng::new(seed);
        let kind = if rng.below(2) == 0 { AggKind::Sum } else { AggKind::Max };
        let shards = rand_fused_shards(&mut rng, n_senders, dim, n_slots);
        let req = encode_exchange_request(
            n_slots,
            &WirePlane::Fused { dim, kind, shards: &shards },
            None,
        );
        let out = decode_exchange_response(&serve_payload(&req))
            .expect("fused exchange must decode");
        let (want_counts, want_acc) = FusedRows::merge(dim, n_slots, &shards, &kind, None)
            .expect("reference merge")
            .into_wire_parts()
            .expect("resident rows");
        match out.cols {
            MergedWire::Fused { dim: got_dim, counts, acc } => {
                prop_assert_eq!(got_dim, dim);
                prop_assert_eq!(counts, want_counts);
                prop_assert_eq!(bits(&acc), bits(&want_acc));
            }
            other => return Err(proptest::TestCaseError(format!(
                "expected fused plane back, got {other:?}"
            ))),
        }
    }

    /// Legacy-plane exchange: the child's merge is slot-major and stable —
    /// within a slot, records keep (ascending sender, emission order),
    /// exactly the in-process delivery order.
    #[test]
    fn prop_legacy_exchange_merge_is_slot_major_stable(
        seed in any::<u64>(),
        n_slots in 1usize..10,
        n_senders in 0usize..5,
    ) {
        let mut rng = TestRng::new(seed);
        let senders: Vec<Vec<(u32, Vec<u8>)>> = (0..n_senders)
            .map(|s| {
                (0..rng.below(12))
                    .enumerate()
                    .map(|(i, _)| {
                        let slot = rng.below(n_slots as u64) as u32;
                        // Tag each record with (sender, emission index) so a
                        // reordering inside a slot is visible in the bytes.
                        (slot, vec![s as u8, i as u8, rng.next_u64() as u8])
                    })
                    .collect()
            })
            .collect();
        let req = encode_exchange_request(n_slots, &WirePlane::None, Some(&senders));
        let out = decode_exchange_response(&serve_payload(&req))
            .expect("legacy exchange must decode");
        let mut want: Vec<(u32, Vec<u8>)> = senders.into_iter().flatten().collect();
        want.sort_by_key(|&(slot, _)| slot); // stable: preserves sender/emission order
        prop_assert!(matches!(out.cols, MergedWire::None));
        prop_assert_eq!(out.legacy.unwrap_or_default(), want);
    }

    /// Concat round-trip: buckets and legacy key records come back
    /// concatenated in ascending sender order, values bit-identical.
    #[test]
    fn prop_concat_round_trip(
        seed in any::<u64>(),
        dim in 1usize..8,
        n_senders in 0usize..5,
    ) {
        let mut rng = TestRng::new(seed);
        let senders = rand_buckets(&mut rng, n_senders, dim);
        let legacy = rand_key_records(&mut rng, n_senders);
        let req = encode_concat_request(dim, Some(&bucket_refs(&senders)), Some(&legacy));
        let out = decode_concat_response(&serve_payload(&req)).expect("concat must decode");

        let (mut want_keys, mut want_counts, mut want_rows) =
            (Vec::new(), Vec::new(), Vec::new());
        for (k, c, r) in &senders {
            want_keys.extend_from_slice(k);
            want_counts.extend_from_slice(c);
            want_rows.extend_from_slice(r.data());
        }
        let (keys, counts, data) = out.bucket.expect("bucket plane present");
        prop_assert_eq!(keys, want_keys);
        prop_assert_eq!(counts, want_counts);
        prop_assert_eq!(bits(&data), bits(&want_rows));
        let want_legacy: Vec<(u64, Vec<u8>)> = legacy.into_iter().flatten().collect();
        prop_assert_eq!(out.legacy.unwrap_or_default(), want_legacy);
    }

    /// Frame I/O: any payload sequence written with `write_frame` reads
    /// back verbatim, then yields a clean `None` at EOF.
    #[test]
    fn prop_frame_io_round_trips(
        payloads in collection::vec(collection::vec(any::<u8>(), 0..200usize), 0..6usize),
    ) {
        let mut pipe = Vec::new();
        for p in &payloads {
            write_frame(&mut pipe, p).expect("vec write");
        }
        let mut r = Cursor::new(pipe.clone());
        for p in &payloads {
            let got = read_frame(&mut r).expect("read");
            prop_assert_eq!(got.as_ref(), Some(p));
        }
        prop_assert!(read_frame(&mut r).expect("eof read").is_none());
        // One kept buffer, frames of every size through it in turn.
        let mut r = Cursor::new(pipe);
        let mut kept = vec![0xAB; 300];
        for p in &payloads {
            prop_assert!(read_frame_into(&mut r, &mut kept).expect("kept read"));
            prop_assert_eq!(&kept, p);
        }
        prop_assert!(!read_frame_into(&mut r, &mut kept).expect("kept eof read"));
    }

    /// One long-lived server, dirty from whatever it served before, answers
    /// every request byte for byte as a fresh `serve_payload` does: both
    /// opcodes, every plane, and error frames.
    #[test]
    fn prop_kept_server_matches_fresh_serve(
        seed in any::<u64>(),
        n_requests in 1usize..8,
    ) {
        let mut rng = TestRng::new(seed);
        let mut server = FrameServer::default();
        for _ in 0..n_requests {
            let request = rand_request(&mut rng);
            let fresh = serve_payload(&request);
            prop_assert_eq!(server.serve(&request), &fresh[..]);
        }
    }

    /// Hostile bytes: `serve_payload` never panics, always answers with a
    /// well-formed status frame, and malformed payloads decode to typed
    /// errors on the parent side — never a panic, never a silent `Ok`.
    #[test]
    fn prop_garbage_payloads_never_panic(
        payload in collection::vec(any::<u8>(), 0..120usize),
    ) {
        let resp = serve_payload(&payload);
        prop_assert!(!resp.is_empty());
        prop_assert!(resp[0] == STATUS_OK || resp[0] == STATUS_ERR);
        // Decoding the response (or the raw garbage itself) must be total.
        let _ = decode_exchange_response(&resp);
        let _ = decode_concat_response(&resp);
        let _ = decode_exchange_response(&payload);
        let _ = decode_concat_response(&payload);
        prop_assert!(true);
    }
}

/// Zero senders and an explicitly empty plane are the idle-worker steady
/// state — they must round-trip, not error.
#[test]
fn empty_shard_sets_round_trip() {
    assert_rows_cycle(4, 8, &[]);

    // A sender that emitted nothing.
    assert_rows_cycle(3, 5, &[RowShard::new(3)]);

    let req = encode_exchange_request(0, &WirePlane::None, None);
    let out = decode_exchange_response(&serve_payload(&req)).expect("empty exchange");
    assert!(matches!(out.cols, MergedWire::None));
    assert!(out.legacy.is_none());

    let req = encode_concat_request(7, None, None);
    let out = decode_concat_response(&serve_payload(&req)).expect("empty concat");
    assert!(out.bucket.is_none());
    assert!(out.legacy.is_none());
}

/// Maximum-width rows: a handful of very wide rows (the transpose of the
/// usual many-narrow-rows shape) survive the codec bit-exactly, NaN and
/// ±inf lanes included.
#[test]
fn max_width_rows_round_trip() {
    let dim = 16_384;
    let mut rng = TestRng::new(0xdead_beef);
    let mut sh = RowShard::new(dim);
    for slot in [1u32, 0] {
        let mut row: Vec<f32> = (0..dim).map(|_| rand_f32(&mut rng)).collect();
        row[0] = f32::NAN;
        row[dim / 2] = f32::INFINITY;
        row[dim - 1] = f32::NEG_INFINITY;
        sh.push(slot, &row);
    }
    assert_rows_cycle(dim, 2, &[sh]);
}

/// Lane blocks are read in bulk (one bounds check per block, not per
/// float), so the check has to hold at *every* cut: a request or response
/// truncated anywhere — before, inside or just after a lane block — must
/// come back as a typed `Error::Codec`, on all three columnar framings.
#[test]
fn truncation_anywhere_in_a_lane_frame_is_a_typed_codec_error() {
    let mut rng = TestRng::new(0x1a9e5);
    let (dim, n_slots) = (5, 6);
    let row_shards = rand_row_shards(&mut rng, 2, dim, n_slots);
    let fused_shards = rand_fused_shards(&mut rng, 2, dim, n_slots);
    let mut bucket = RowBlock::new(dim);
    for _ in 0..3 {
        let row: Vec<f32> = (0..dim).map(|_| rand_f32(&mut rng)).collect();
        bucket.push_row(&row);
    }
    let buckets = [(&[7u64, 8, 9][..], &[1u32, 2, 3][..], &bucket)];

    type DecodeErr = fn(&[u8]) -> Option<Error>;
    let exchange: DecodeErr = |b| decode_exchange_response(b).err();
    let concat: DecodeErr = |b| decode_concat_response(b).err();
    let cases: [(&str, Vec<u8>, DecodeErr); 3] = [
        (
            "rows",
            encode_exchange_request(
                n_slots,
                &WirePlane::Rows {
                    dim,
                    shards: &row_shards,
                },
                None,
            ),
            exchange,
        ),
        (
            "fused",
            encode_exchange_request(
                n_slots,
                &WirePlane::Fused {
                    dim,
                    kind: AggKind::Sum,
                    shards: &fused_shards,
                },
                None,
            ),
            exchange,
        ),
        (
            "concat",
            encode_concat_request(dim, Some(&buckets), None),
            concat,
        ),
    ];
    for (what, request, decode_err) in cases {
        let response = serve_payload(&request);
        assert!(decode_err(&response).is_none(), "{what}: intact cycle");
        for cut in 0..request.len() {
            // The child answers a truncated request with a typed error frame.
            let err = decode_err(&serve_payload(&request[..cut]));
            assert!(
                matches!(err, Some(Error::Codec(_))),
                "{what} request cut at {cut}/{}: {err:?}",
                request.len()
            );
        }
        for cut in 0..response.len() {
            let err = decode_err(&response[..cut]);
            assert!(
                matches!(err, Some(Error::Codec(_))),
                "{what} response cut at {cut}/{}: {err:?}",
                response.len()
            );
        }
    }
}

/// A shard header may claim far more lanes than the frame holds (here
/// ~8.6 billion: two rows of `u32::MAX` lanes, 32 GiB if reserved). The
/// claim is checked against the bytes present before any allocation.
#[test]
fn oversized_lane_claims_fail_before_allocating() {
    let mut w = WireWriter::new();
    w.put_u8(1); // OP_EXCHANGE
    w.put_varint(4); // n_slots
    w.put_u8(1); // PLANE_ROWS
    w.put_varint(u32::MAX as u64); // plane dim
    w.put_varint(1); // one shard
    w.put_varint(u32::MAX as u64); // shard dim
    w.put_varint(2); // two rows
    w.put_varint(0);
    w.put_varint(1);
    w.put_f32_lanes(&[1.0; 8]); // a few real lanes, nowhere near the claim
    let err = decode_exchange_response(&serve_payload(&w.into_bytes())).unwrap_err();
    assert!(matches!(err, Error::Codec(_)), "{err:?}");

    // A header alone can ask for a response no frame could carry: here
    // 2^40 slots, fused at width 8 (32 TiB of accumulators), or sealed.
    for (plane, dim) in [(2u8, 8u64), (1, 1)] {
        let mut w = WireWriter::new();
        w.put_u8(1); // OP_EXCHANGE
        w.put_varint(1 << 40); // n_slots
        w.put_u8(plane);
        if plane == 2 {
            w.put_u8(0); // AggKind::Sum
        }
        w.put_varint(dim);
        w.put_varint(0); // no shards
        w.put_u8(0); // no legacy plane
        let err = decode_exchange_response(&serve_payload(&w.into_bytes())).unwrap_err();
        assert!(
            matches!(&err, Error::Codec(m) if m.contains("frame limit")),
            "{err:?}"
        );
    }

    // Response side: offsets promise u32::MAX rows of u32::MAX lanes.
    let mut w = WireWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u8(1); // PLANE_ROWS
    w.put_varint(u32::MAX as u64);
    w.put_varint(1);
    w.put_varint(u32::MAX as u64);
    w.put_f32_lanes(&[1.0; 8]);
    let err = decode_exchange_response(&w.into_bytes()).unwrap_err();
    assert!(matches!(err, Error::Codec(_)), "{err:?}");
}

/// The bulk lane writer must not change a single byte of a shard's wire
/// image: re-encode with the per-float loop the encoders used before.
#[test]
fn shard_wire_image_matches_per_float_reference() {
    let mut rng = TestRng::new(0xb17e5);
    for sh in rand_row_shards(&mut rng, 4, 7, 9) {
        let mut w = WireWriter::new();
        w.put_varint(7);
        w.put_varint(sh.slots.len() as u64);
        for &s in &sh.slots {
            w.put_varint(s as u64);
        }
        for &x in sh.rows.data() {
            w.put_f32(x);
        }
        assert_eq!(sh.to_bytes(), w.into_bytes());
    }
    for sh in rand_fused_shards(&mut rng, 4, 7, 9) {
        let mut w = WireWriter::new();
        w.put_varint(7);
        w.put_varint(sh.keys.len() as u64);
        for &k in &sh.keys {
            w.put_varint(k as u64);
        }
        for &c in &sh.counts {
            w.put_varint(c as u64);
        }
        for &x in sh.rows.data() {
            w.put_f32(x);
        }
        assert_eq!(sh.to_bytes(), w.into_bytes());
    }
}

/// A child that overflows the `u32` row-index space reports
/// `Error::Capacity`; that variant must reach the parent **typed**, not
/// flattened to `Internal`, so callers can distinguish "shard your graph"
/// from "transport bug". (The boundary itself — `u32::MAX` rows OK, one
/// more is `Capacity` — is unit-tested beside `check_u32_row_capacity`
/// in `inferturbo_common::rows`; a >4-billion-row payload is not
/// something a test can materialize.)
#[test]
fn u32_capacity_error_crosses_the_wire_typed() {
    let e = Error::Capacity("row arena overflow: 4294967296 rows exceed u32 addressing".into());
    let resp = encode_error(&e);
    assert_eq!(resp[0], STATUS_ERR);
    for decoded in [
        decode_exchange_response(&resp).unwrap_err(),
        decode_concat_response(&resp).unwrap_err(),
    ] {
        match decoded {
            Error::Capacity(m) => assert!(m.contains("row arena overflow"), "{m}"),
            other => panic!("capacity error degraded to {other:?}"),
        }
    }
}

/// Every tagged error kind survives the wire with its type; untagged
/// variants degrade to `Internal` carrying the rendered message.
#[test]
fn tagged_error_kinds_round_trip() {
    let round = |e: &Error| decode_exchange_response(&encode_error(e)).unwrap_err();
    assert!(matches!(
        round(&Error::Codec("bad varint".into())),
        Error::Codec(m) if m == "bad varint"
    ));
    assert!(matches!(
        round(&Error::Io("pipe closed".into())),
        Error::Io(m) if m == "pipe closed"
    ));
    assert!(matches!(
        round(&Error::Internal("merge bug".into())),
        Error::Internal(m) if m == "merge bug"
    ));
    // Untagged variants degrade to Internal — but stay typed errors.
    assert!(matches!(
        round(&Error::DeadlineExceeded { deadline: 42 }),
        Error::Internal(_)
    ));
}

/// Awkward bit patterns (-0.0, the smallest subnormal, NaN, irrational
/// fractions): a lossy trip through the frame would show in the bits.
fn odd_bits(n: usize, dim: usize) -> Vec<f32> {
    (0..n * dim)
        .map(|i| match i % 5 {
            0 => -0.0,
            1 => f32::from_bits(1),
            2 => (i as f32 * 0.37).sin(),
            3 => f32::from_bits(0x7fc0_0001),
            _ => i as f32 * 1e-30,
        })
        .collect()
}

/// A materialized shard's lanes cross the frame as they are: the child
/// copies each row's bytes, so every bit pattern comes back. An empty
/// shard keeps its plane's width.
#[test]
fn row_shard_wire_round_trip_is_bit_identical() {
    let dim = 3;
    let mut sh = RowShard::new(dim);
    for (i, row) in odd_bits(5, dim).chunks(dim).enumerate() {
        sh.push((i * 2 % 7) as u32, row);
    }
    assert_rows_cycle(dim, 7, &[sh.clone(), RowShard::new(dim), sh]);
    assert_rows_cycle(7, 2, &[RowShard::new(7)]);
}

/// A fused shard's keys, counts and partials reach the child's merge
/// intact: the served plane equals `FusedRows::merge` of the original
/// shards to the bit, a `-0.0` first partial included.
#[test]
fn fused_shard_wire_round_trip_preserves_merge_inputs() {
    let dim = 2;
    let mut a = FusedSlotShard::new(dim, 6);
    a.accumulate(4, &[1.0, -0.0], 1, &AggKind::Sum);
    a.accumulate(0, &[2.0, 3.0], 2, &AggKind::Sum);
    a.accumulate(4, &[0.5, 0.5], 1, &AggKind::Sum);
    let mut b = FusedSlotShard::new(dim, 6);
    for (i, row) in odd_bits(3, dim).chunks(dim).enumerate() {
        b.accumulate([5, 0, 1][i], row, 3, &AggKind::Sum);
    }
    let shards = [a, b];
    let req = encode_exchange_request(
        6,
        &WirePlane::Fused {
            dim,
            kind: AggKind::Sum,
            shards: &shards,
        },
        None,
    );
    let (want_counts, want_acc) = FusedRows::merge(dim, 6, &shards, &AggKind::Sum, None)
        .unwrap()
        .into_wire_parts()
        .unwrap();
    match decode_exchange_response(&serve_payload(&req)).unwrap().cols {
        MergedWire::Fused {
            dim: d,
            counts,
            acc,
        } => {
            assert_eq!(d, dim);
            assert_eq!(counts, want_counts);
            assert_eq!(bits(&acc), bits(&want_acc));
            assert_eq!(
                acc[10].to_bits(),
                (-0.0f32).to_bits(),
                "slot 5's first lane"
            );
        }
        other => panic!("expected a fused plane back, got {other:?}"),
    }
}

/// A shard header that lies — more rows than the frame has bytes for,
/// lanes cut short, or bytes left over — is a typed codec error from the
/// child, before anything is sized from the claim.
#[test]
fn shard_decode_rejects_lying_lengths() {
    let header = |w: &mut WireWriter, n: u64| {
        w.put_u8(1); // OP_EXCHANGE
        w.put_varint(4); // n_slots
        w.put_u8(1); // PLANE_ROWS
        w.put_varint(4); // plane dim
        w.put_varint(1); // one shard
        w.put_varint(4); // shard dim
        w.put_varint(n);
    };
    let mut w = WireWriter::new();
    header(&mut w, 1 << 40);
    let mut short = WireWriter::new();
    header(&mut short, 2);
    short.put_varint(0);
    short.put_varint(1);
    short.put_f32(1.0);
    let mut trailing = encode_exchange_request(4, &WirePlane::None, None);
    trailing.push(0);
    for request in [w.into_bytes(), short.into_bytes(), trailing] {
        let err = decode_exchange_response(&serve_payload(&request)).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err:?}");
    }
}

/// A length prefix is four bytes anyone can flip: one claiming ~4 GiB
/// with three bytes behind it must fail as a short frame without the
/// kept buffer growing to the claim.
#[test]
fn a_lying_length_prefix_cannot_size_the_buffer() {
    let mut stream = 0xFFFF_FFF0u32.to_le_bytes().to_vec();
    stream.extend_from_slice(&[1, 2, 3]);
    let mut kept = Vec::new();
    let err = read_frame_into(&mut Cursor::new(stream), &mut kept).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert!(kept.capacity() < 1 << 20, "capacity {}", kept.capacity());
}
