//! The worker-process transport against a real spawned `itworker` child:
//! merges must be bit-identical to the in-process backend, stream failures
//! must surface transient and heal on respawn, and a child serving frame
//! after frame must not allocate per frame.

use inferturbo_cluster::transport::{
    ColsShards, ConcatDest, ConcatExchange, DestShards, Exchange, InProcess, MergedCols, Transport,
    WorkerProcess,
};
use inferturbo_common::rows::{AggKind, FusedAggregator, FusedSlotShard, RowBlock, RowShard};
use inferturbo_common::Xoshiro256;
use std::path::PathBuf;

fn process_transport() -> WorkerProcess {
    WorkerProcess::with_bin(PathBuf::from(env!("CARGO_BIN_EXE_itworker")))
}

fn row_shards(dim: usize) -> Vec<RowShard> {
    let mut a = RowShard::new(dim);
    a.push(3, &[1.5, -2.25, 0.0]);
    a.push(0, &[f32::MIN_POSITIVE, -0.0, 1e-38]);
    a.push(3, &[8.0, 9.0, 10.0]);
    let mut b = RowShard::new(dim);
    b.push(1, &[0.1, 0.2, 0.3]);
    b.push(3, &[-1.0, -2.0, -3.0]);
    vec![a, b]
}

fn fused_shards(dim: usize, n_slots: usize, agg: &AggKind) -> Vec<FusedSlotShard> {
    let mut a = FusedSlotShard::new(dim, n_slots);
    a.accumulate(2, &[1.0, 2.0, 3.0], 1, agg);
    a.accumulate(0, &[-4.0, 5.5, 0.25], 2, agg);
    a.accumulate(2, &[7.0, -8.0, 9.0], 1, agg);
    let mut b = FusedSlotShard::new(dim, n_slots);
    b.accumulate(0, &[100.0, -100.0, 0.5], 3, agg);
    vec![a, b]
}

fn exchange_for<'a>(
    rows: &'a [RowShard],
    fused: &'a [FusedSlotShard],
    agg: &'a AggKind,
    dim: usize,
    n_slots: usize,
) -> Exchange<'a> {
    Exchange {
        step: 0,
        faults: None,
        spill: None,
        dests: vec![
            DestShards {
                n_slots,
                cols: ColsShards::Rows { dim, shards: rows },
                legacy: Some(vec![
                    vec![(4, vec![1, 2]), (0, vec![3])],
                    vec![(4, vec![4]), (2, vec![5, 6, 7])],
                ]),
            },
            DestShards {
                n_slots,
                cols: ColsShards::Fused {
                    dim,
                    agg,
                    shards: fused,
                },
                legacy: None,
            },
        ],
    }
}

#[test]
fn process_exchange_is_bit_identical_to_in_process() {
    let (dim, n_slots) = (3, 5);
    let rows = row_shards(dim);
    let agg = AggKind::Sum;
    let fused = fused_shards(dim, n_slots, &agg);

    let proc = process_transport();
    let mut via_proc = proc
        .exchange(exchange_for(&rows, &fused, &agg, dim, n_slots))
        .expect("process exchange");
    let mut via_local = InProcess
        .exchange(exchange_for(&rows, &fused, &agg, dim, n_slots))
        .expect("in-process exchange");

    assert!(
        via_proc.wire_bytes > 0,
        "bytes must actually cross the socket"
    );
    assert_eq!(via_local.wire_bytes, 0);

    let (pr, lr) = (&mut via_proc.dests[0], &mut via_local.dests[0]);
    match (&mut pr.cols, &mut lr.cols) {
        (MergedCols::Rows(p), MergedCols::Rows(l)) => {
            for slot in 0..n_slots {
                assert_eq!(p.count(slot), l.count(slot));
                assert_eq!(
                    p.rows(slot).unwrap().to_vec(),
                    l.rows(slot).unwrap().to_vec()
                );
            }
        }
        _ => panic!("expected rows planes from both backends"),
    }
    assert_eq!(pr.legacy, lr.legacy, "legacy merge order must match");

    let (pf, lf) = (&mut via_proc.dests[1], &mut via_local.dests[1]);
    match (&mut pf.cols, &mut lf.cols) {
        (MergedCols::Fused(p), MergedCols::Fused(l)) => {
            for slot in 0..n_slots {
                assert_eq!(p.count(slot), l.count(slot));
                assert_eq!(p.row(slot).unwrap(), l.row(slot).unwrap());
            }
        }
        _ => panic!("expected fused planes from both backends"),
    }
}

#[test]
fn process_concat_is_bit_identical_to_in_process() {
    let dim = 2;
    let mut r1 = RowBlock::new(dim);
    r1.push_row(&[1.0, -2.0]);
    r1.push_row(&[3.5, 4.5]);
    let mut r2 = RowBlock::new(dim);
    r2.push_row(&[-0.0, 0.0]);
    let k1 = [11u64, 13];
    let c1 = [2u32, 1];
    let k2 = [17u64];
    let c2 = [5u32];
    let concat = |t: &dyn Transport| {
        t.exchange_concat(ConcatExchange {
            dests: vec![ConcatDest {
                dim,
                buckets: Some(vec![
                    inferturbo_cluster::transport::BucketRef {
                        keys: &k1,
                        counts: &c1,
                        rows: &r1,
                    },
                    inferturbo_cluster::transport::BucketRef {
                        keys: &k2,
                        counts: &c2,
                        rows: &r2,
                    },
                ]),
                legacy: Some(vec![vec![(11, vec![9])], vec![(17, vec![8, 7])]]),
            }],
        })
        .expect("concat")
    };
    let proc = process_transport();
    let p = concat(&proc);
    let l = concat(&InProcess);
    assert!(p.wire_bytes > 0);
    let (pb, lb) = (
        p.dests[0].bucket.as_ref().unwrap(),
        l.dests[0].bucket.as_ref().unwrap(),
    );
    assert_eq!(pb.keys, lb.keys);
    assert_eq!(pb.counts, lb.counts);
    assert_eq!(pb.rows.data(), lb.rows.data());
    assert_eq!(p.dests[0].legacy, l.dests[0].legacy);
}

#[test]
fn children_are_pooled_and_reused_across_exchanges() {
    let (dim, n_slots) = (3, 5);
    let rows = row_shards(dim);
    let agg = AggKind::Sum;
    let fused = fused_shards(dim, n_slots, &agg);
    let proc = process_transport();
    // Several consecutive exchanges through the same transport must keep
    // producing identical results (pooled children stay frame-aligned).
    let first = proc
        .exchange(exchange_for(&rows, &fused, &agg, dim, n_slots))
        .expect("first exchange");
    for _ in 0..3 {
        let again = proc
            .exchange(exchange_for(&rows, &fused, &agg, dim, n_slots))
            .expect("repeat exchange");
        assert_eq!(again.wire_bytes, first.wire_bytes);
        assert_eq!(again.dests[0].legacy, first.dests[0].legacy);
    }
}

#[test]
fn a_missing_worker_binary_is_a_typed_error_not_a_hang() {
    let proc = WorkerProcess::with_bin(PathBuf::from("/nonexistent/itworker"));
    let rows = row_shards(3);
    let err = proc
        .exchange(Exchange {
            step: 0,
            faults: None,
            spill: None,
            dests: vec![DestShards {
                n_slots: 5,
                cols: ColsShards::Rows {
                    dim: 3,
                    shards: &rows,
                },
                legacy: None,
            }],
        })
        .unwrap_err();
    assert!(
        err.to_string().contains("spawn"),
        "spawn failure should be reported: {err}"
    );
}

/// A child that exits without answering tears the stream: the parent
/// must read EOF — it holds no copy of the child's end of the socket — and
/// report a retryable `WorkerLost`, never hang on the read.
#[cfg(target_os = "linux")]
#[test]
fn a_child_that_dies_is_a_transient_worker_lost_not_a_hang() {
    let proc = WorkerProcess::with_bin(PathBuf::from("/bin/true"));
    let rows = row_shards(3);
    let err = proc
        .exchange(Exchange {
            step: 0,
            faults: None,
            spill: None,
            dests: vec![DestShards {
                n_slots: 5,
                cols: ColsShards::Rows {
                    dim: 3,
                    shards: &rows,
                },
                legacy: None,
            }],
        })
        .unwrap_err();
    assert!(
        matches!(err, inferturbo_common::Error::WorkerLost { worker: 0, .. }),
        "{err:?}"
    );
    assert!(err.is_transient());
}

#[test]
fn custom_aggregators_without_wire_identity_merge_locally() {
    // An aggregator whose wire_kind is None (the trait default) cannot
    // ship — the transport must fall back to a local merge and still
    // succeed without a worker binary.
    #[derive(Debug)]
    struct Weird;
    impl inferturbo_common::rows::FusedAggregator for Weird {
        fn identity(&self) -> f32 {
            0.0
        }
        fn accumulate(&self, acc: &mut [f32], row: &[f32]) {
            for (a, b) in acc.iter_mut().zip(row) {
                *a = a.max(*b) + 1.0;
            }
        }
    }
    let (dim, n_slots) = (3, 5);
    let agg = AggKind::Sum; // only used to build inputs
    let fused = fused_shards(dim, n_slots, &agg);
    let proc = WorkerProcess::with_bin(PathBuf::from("/nonexistent/itworker"));
    let out = proc
        .exchange(Exchange {
            step: 0,
            faults: None,
            spill: None,
            dests: vec![DestShards {
                n_slots,
                cols: ColsShards::Fused {
                    dim,
                    agg: &Weird,
                    shards: &fused,
                },
                legacy: None,
            }],
        })
        .expect("local fused fallback must not need a worker");
    assert_eq!(out.wire_bytes, 0);
    assert!(matches!(out.dests[0].cols, MergedCols::Fused(_)));
}

/// A serial front-to-back fold of one slot's partials in sender order,
/// copy-on-first — the merge's specification, written out by hand.
fn serial_fold(kind: AggKind, partials: &[f32]) -> f32 {
    let mut acc = [partials[0]];
    for &p in &partials[1..] {
        kind.accumulate(&mut acc, &[p]);
    }
    acc[0]
}

/// Values whose f32 fold depends on the order, and first partials that
/// only copy-on-first keeps (`-0.0` under `Sum`, NaN under `Max`): the
/// child's merge must reproduce `FusedRows::merge` and the serial
/// ascending-sender fold to the bit, for three senders.
#[test]
fn fused_fold_order_and_signed_zero_survive_the_wire() {
    let nan = f32::NAN;
    // Per kind: lanes of slot 0 as one column per sender, then slot 1,
    // which only sender 1 touches.
    let cases: [(AggKind, [[f32; 3]; 3], [f32; 3]); 2] = [
        (
            AggKind::Sum,
            [[1e8, 1.0, -0.0], [-1e8, 1e8, -0.0], [1.0, -1e8, -0.0]],
            [-0.0, 1e8, 3.0],
        ),
        (
            AggKind::Max,
            [[-0.0, nan, 1.0], [0.0, 1.0, 3.0], [-1.0, 2.0, 2.0]],
            [-0.0, nan, -1.0],
        ),
    ];
    let (dim, n_slots) = (3, 3);
    let proc = process_transport();
    for (kind, slot0, slot1) in cases {
        let shards: Vec<FusedSlotShard> = slot0
            .iter()
            .enumerate()
            .map(|(sender, row)| {
                let mut sh = FusedSlotShard::new(dim, n_slots);
                sh.accumulate(0, row, 1, &kind);
                if sender == 1 {
                    sh.accumulate(1, &slot1, 2, &kind);
                }
                sh
            })
            .collect();
        let exchange = || Exchange {
            step: 0,
            faults: None,
            spill: None,
            dests: vec![DestShards {
                n_slots,
                cols: ColsShards::Fused {
                    dim,
                    agg: &kind,
                    shards: &shards,
                },
                legacy: None,
            }],
        };
        let mut via_proc = proc.exchange(exchange()).expect("process exchange");
        let mut via_local = InProcess.exchange(exchange()).expect("in-process exchange");
        let (MergedCols::Fused(p), MergedCols::Fused(l)) =
            (&mut via_proc.dests[0].cols, &mut via_local.dests[0].cols)
        else {
            panic!("expected fused planes from both backends");
        };
        let want: [Vec<f32>; 2] = [
            (0..dim)
                .map(|lane| serial_fold(kind, &slot0.map(|row| row[lane])))
                .collect(),
            slot1.to_vec(),
        ];
        for (slot, want) in want.iter().enumerate() {
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let got = bits(p.row(slot).unwrap());
            assert_eq!(got, bits(l.row(slot).unwrap()), "{kind:?} slot {slot}");
            assert_eq!(got, bits(want), "{kind:?} slot {slot}");
            assert_eq!(p.count(slot), l.count(slot));
        }
        assert_eq!((p.count(0), p.count(1), p.count(2)), (3, 2, 0));
    }
}

/// A child serving the same large frames over and over must stop
/// touching new memory after the first ones: its request, response and
/// merge buffers are kept. A child that allocated them per frame would
/// take hundreds of page faults per megabyte frame.
#[cfg(target_os = "linux")]
#[test]
fn a_worker_child_allocates_nothing_in_steady_state() {
    use inferturbo_cluster::transport::frame::{self, WirePlane};
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    use std::process::{Command, Stdio};

    let (dim, n_slots) = (32, 4096);
    let mut rng = Xoshiro256::seed_from_u64(0x5eed);
    let mut row = || -> Vec<f32> { (0..dim).map(|_| rng.next_f32() - 0.5).collect() };
    let fused: Vec<FusedSlotShard> = (0..2u32)
        .map(|sender| {
            let mut sh = FusedSlotShard::new(dim, n_slots);
            for i in 0..n_slots as u32 {
                sh.accumulate(
                    (i * 1237 + sender) % n_slots as u32,
                    &row(),
                    1,
                    &AggKind::Sum,
                );
            }
            sh
        })
        .collect();
    let rows: Vec<RowShard> = (0..2u32)
        .map(|sender| {
            let mut sh = RowShard::new(dim);
            for i in 0..n_slots as u32 {
                sh.push((i * 911 + sender * 7) % n_slots as u32, &row());
            }
            sh
        })
        .collect();
    let requests = [
        frame::encode_exchange_request(
            n_slots,
            &WirePlane::Fused {
                dim,
                kind: AggKind::Sum,
                shards: &fused,
            },
            None,
        ),
        frame::encode_exchange_request(n_slots, &WirePlane::Rows { dim, shards: &rows }, None),
    ];
    assert!(requests.iter().all(|r| r.len() > 1 << 20), "~1 MB frames");
    let want: Vec<Vec<u8>> = requests.iter().map(|r| frame::serve_payload(r)).collect();

    let (mut socket, child_end) = UnixStream::pair().expect("socket pair");
    let child_in = OwnedFd::from(child_end.try_clone().expect("clone"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_itworker"))
        .stdin(Stdio::from(child_in))
        .stdout(Stdio::from(OwnedFd::from(child_end)))
        .spawn()
        .expect("spawn itworker");
    // Field 10 of /proc/<pid>/stat; the name in field 2 may hold spaces,
    // so count from its closing parenthesis.
    let stat_path = format!("/proc/{}/stat", child.id());
    let minflt = || -> u64 {
        let stat = std::fs::read_to_string(&stat_path).expect("read stat");
        let fields = &stat[stat.rfind(')').expect("comm") + 1..];
        fields
            .split_whitespace()
            .nth(7)
            .expect("minflt")
            .parse()
            .expect("number")
    };
    let mut reader = std::io::BufReader::new(socket.try_clone().expect("clone"));
    let mut faults_after = Vec::new();
    for round in 1..=10 {
        for (request, want) in requests.iter().zip(&want) {
            frame::write_frame(&mut socket, request).expect("write request");
            let got = frame::read_frame(&mut reader)
                .expect("read")
                .expect("a response");
            assert!(
                got == *want,
                "round {round}: response differs from serve_payload"
            );
        }
        faults_after.push(minflt());
    }
    drop((socket, reader));
    assert!(child.wait().expect("reap").success());
    let growth = faults_after[9] - faults_after[1];
    assert!(
        growth <= 32,
        "child took {growth} minor faults over 16 frames in steady state: {faults_after:?}"
    );
}
