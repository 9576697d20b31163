//! Size contract of the wire codec: `Encode::encoded_len` is a closed form
//! (no default body, nothing encodes to find out), so the one way to get
//! it wrong is arithmetic. This suite drives one helper over every
//! `Encode` implementor in the workspace; because `to_bytes` presizes its
//! buffer from the same number, equality here also means every encode
//! allocates exactly once.

use std::sync::Arc;

use inferturbo::common::codec::Encode;
use inferturbo::common::rows::{AggKind, FusedSlotShard, RowShard};
use inferturbo::core::gas::GnnMessage;
use inferturbo::core::infer::mr_backend::MrRecord;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::strategy::{wire_id, NodeRecord, NODE_FLAG};

fn assert_len_exact<T: Encode + ?Sized>(what: &str, v: &T) {
    let bytes = v.to_bytes();
    assert_eq!(
        v.encoded_len(),
        bytes.len(),
        "{what}: closed-form size disagrees with the encoder"
    );
}

/// Values spanning every varint width from 1 to 10 bytes.
fn varint_ladder() -> Vec<u64> {
    let mut v = vec![0u64, 1];
    for shift in (7..64).step_by(7) {
        v.push((1 << shift) - 1);
        v.push(1 << shift);
    }
    v.push(u64::MAX);
    v
}

#[test]
fn scalars_and_containers() {
    for v in varint_ladder() {
        assert_len_exact("u64", &v);
        assert_len_exact("&u64", &&v);
        assert_len_exact("u32", &(v as u32));
        assert_len_exact("(u64, u32)", &(v, v as u32));
        assert_len_exact("Option<u64>", &Some(v));
    }
    assert_len_exact("Vec<u64>", &varint_ladder());
    assert_len_exact("Vec<u64> empty", &Vec::<u64>::new());
    assert_len_exact("f32", &f32::NAN);
    for n in [0usize, 1, 127, 128, 200] {
        assert_len_exact("Vec<f32>", &vec![0.5f32; n]);
        assert_len_exact("String", &"é".repeat(n));
    }
    assert_len_exact("Option::None", &None::<Vec<f32>>);
    let nested = (
        Some((NODE_FLAG | 7, vec![1.0f32, -2.0])),
        ("layer-0".to_string(), None::<u32>),
    );
    assert_len_exact("nested tuple/Option", &nested);
}

#[test]
fn gnn_messages() {
    for m in [
        GnnMessage::Partial {
            acc: vec![1.0; 130],
            count: u32::MAX,
        },
        GnnMessage::Partial {
            acc: vec![],
            count: 0,
        },
        GnnMessage::Embedding(vec![0.25; 64]),
        GnnMessage::Ref(NODE_FLAG | 3),
        GnnMessage::Ref(0),
    ] {
        assert_len_exact("GnnMessage", &m);
    }
}

#[test]
fn mr_records_with_flagged_targets() {
    // NODE_FLAG sets bit 63: every target is a full 10-byte varint, the
    // width a shortcut closed form is most likely to miss.
    let targets: Arc<[u64]> = (0..200u32).map(|v| wire_id(v, v % 3)).collect();
    let records = [
        MrRecord::SelfState {
            h: vec![0.5; 64],
            out_targets: Arc::clone(&targets),
            in_deg: 300,
            out_deg: u32::MAX,
        },
        MrRecord::SelfState {
            h: vec![],
            out_targets: Vec::new().into(),
            in_deg: 0,
            out_deg: 0,
        },
        MrRecord::InMsg(GnnMessage::Ref(wire_id(9, 1))),
        MrRecord::InMsg(GnnMessage::Embedding(vec![1.0; 16])),
        MrRecord::Bcast {
            src: wire_id(u32::MAX, 5),
            msg: GnnMessage::Partial {
                acc: vec![2.0; 64],
                count: 12_345,
            },
        },
        MrRecord::Output(vec![0.1, 0.9, 0.0, 0.0]),
        MrRecord::Output(vec![]),
    ];
    for r in &records {
        assert_len_exact("MrRecord", r);
    }
}

#[test]
fn node_records_with_mirrors() {
    let records = [
        // A plain node scattering to mirrored destinations.
        NodeRecord {
            wire: wire_id(41, 0),
            base: 41,
            raw: vec![0.5; 16],
            out_targets: (0..130u32).map(|v| wire_id(v, v % 4)).collect(),
            in_deg: 7,
            out_deg: 130,
        },
        // A shadow mirror: the mirror index rides bits 32..63 of the wire id.
        NodeRecord {
            wire: wire_id(u32::MAX, (1 << 31) - 1),
            base: u32::MAX,
            raw: vec![],
            out_targets: Vec::new().into(),
            in_deg: u32::MAX,
            out_deg: 1 << 20,
        },
    ];
    for r in &records {
        assert_len_exact("NodeRecord", r);
        assert_len_exact("&NodeRecord", &r);
    }
}

#[test]
fn row_shards() {
    assert_len_exact("RowShard empty", &RowShard::new(8));
    assert_len_exact("RowShard zero-dim", &RowShard::new(0));
    let mut one = RowShard::new(8);
    one.push(3, &[1.5; 8]);
    assert_len_exact("RowShard 1 row", &one);
    let mut many = RowShard::new(3);
    for slot in [0u32, 127, 128, 70_000, u32::MAX] {
        many.push(slot, &[slot as f32; 3]);
    }
    assert_len_exact("RowShard mixed slot widths", &many);

    assert_len_exact("FusedSlotShard empty", &FusedSlotShard::new(8, 4));
    let mut one = FusedSlotShard::new(4, 300);
    one.accumulate(299, &[1.0; 4], 1, &AggKind::Sum);
    assert_len_exact("FusedSlotShard 1 row", &one);
    let mut folded = FusedSlotShard::new(2, 300);
    for (slot, count) in [(0u32, 1u32), (200, 127), (0, 128), (299, u32::MAX / 2)] {
        folded.accumulate(slot, &[0.5, -0.5], count, &AggKind::Max);
    }
    assert_len_exact("FusedSlotShard folded", &folded);

    for kind in [AggKind::Sum, AggKind::Max] {
        assert_len_exact("AggKind", &kind);
    }
}

#[test]
fn model_signatures() {
    for (what, m) in [
        (
            "SAGE",
            GnnModel::sage(16, 64, 2, 4, false, PoolOp::Mean, 11),
        ),
        (
            "SAGE max multilabel",
            GnnModel::sage(6, 8, 3, 121, true, PoolOp::Max, 2),
        ),
        ("GAT", GnnModel::gat(16, 64, 4, 2, 4, false, 11)),
        ("GCN", GnnModel::gcn(10, 4, 3, 2, false, 3)),
    ] {
        assert_len_exact(what, &m);
    }
}
