//! GAT projects at the source (`apply_edge` returns `W·h`), gathers its
//! in-messages as a union of rows lent where they lie, may be handed its
//! own projection back (`NodeCtx::own_msg`) instead of recomputing it, and
//! runs its attention in a per-thread scratch kept across vertices and
//! layers. None of that may change a bit: this file keeps the
//! receiver-side formula the layer used before — raw `h` rows, one
//! `matvec_acc` per in-message and one for the node itself, the softmax
//! `exp` evaluated once for the denominator and again for the weight — as
//! a local reference, and holds `apply_node(apply_edge(..))` to it bit for
//! bit, however the union's rows were delivered, whether or not the own
//! projection is given, and whatever the scratch held before.

use inferturbo::common::Xoshiro256;
use inferturbo::core::models::gas_impl::{LayerView, GAT_LEAKY_SLOPE};
use inferturbo::core::models::{matvec_acc, GnnModel};
use inferturbo::core::{AggState, GasLayer, NodeCtx};
use inferturbo::pregel::{LentRows, RowsIn};
use std::borrow::Cow;

/// The receiver-side GAT update over raw (unprojected) in-messages.
fn receiver_side_gat(model: &GnnModel, heads: usize, state: &[f32], msgs: &[Vec<f32>]) -> Vec<f32> {
    receiver_side_gat_at(model, 0, heads, state, msgs)
}

/// [`receiver_side_gat`] for layer `layer` of `model`.
fn receiver_side_gat_at(
    model: &GnnModel,
    layer: usize,
    heads: usize,
    state: &[f32],
    msgs: &[Vec<f32>],
) -> Vec<f32> {
    let lp = &model.layers[layer];
    let params = &model.params;
    let w = params.get(lp.w);
    let a_src = params.get(lp.a_src.expect("GAT has a_src"));
    let a_dst = params.get(lp.a_dst.expect("GAT has a_dst"));
    let dh = lp.out_dim / heads;

    let mut out = params.get(lp.bias).row(0).to_vec();
    if !msgs.is_empty() {
        let mut wh_self = vec![0.0f32; lp.out_dim];
        matvec_acc(w, state, &mut wh_self);
        let dst_attn: Vec<f32> = (0..heads)
            .map(|h| {
                let lo = h * dh;
                wh_self[lo..lo + dh]
                    .iter()
                    .zip(&a_dst.row(0)[lo..lo + dh])
                    .map(|(x, a)| x * a)
                    .sum()
            })
            .collect();

        let mut whs: Vec<Vec<f32>> = Vec::with_capacity(msgs.len());
        let mut logits: Vec<f32> = Vec::with_capacity(msgs.len() * heads);
        for m in msgs {
            let mut wh = vec![0.0f32; lp.out_dim];
            matvec_acc(w, m, &mut wh);
            for (h, &d_attn) in dst_attn.iter().enumerate() {
                let lo = h * dh;
                let src_attn: f32 = wh[lo..lo + dh]
                    .iter()
                    .zip(&a_src.row(0)[lo..lo + dh])
                    .map(|(x, a)| x * a)
                    .sum();
                let e = src_attn + d_attn;
                logits.push(if e >= 0.0 { e } else { GAT_LEAKY_SLOPE * e });
            }
            whs.push(wh);
        }

        for h in 0..heads {
            let mut max = f32::NEG_INFINITY;
            for i in 0..msgs.len() {
                max = max.max(logits[i * heads + h]);
            }
            let mut denom = 0.0f32;
            for i in 0..msgs.len() {
                denom += (logits[i * heads + h] - max).exp();
            }
            let lo = h * dh;
            for (i, wh) in whs.iter().enumerate() {
                let alpha = (logits[i * heads + h] - max).exp() / denom;
                for k in 0..dh {
                    out[lo + k] += alpha * wh[lo + k];
                }
            }
        }
    }
    lp.act.apply_slice(&mut out);
    out
}

/// How the embeddings fed to a case are drawn.
#[derive(Clone, Copy, Debug)]
enum Inputs {
    /// Unit-scale values.
    Unit,
    /// Unit-scale values with ±0.0 lanes and whole ±0.0 rows mixed in
    /// (`matvec_acc` multiplies zero lanes like any other, so signed zeros
    /// reach its sums; an all-zero row projects to zero logits).
    SignedZeros,
    /// Magnitudes around 1e5: logits far apart, so most softmax weights
    /// underflow to exactly zero while everything stays finite.
    Large,
}

fn draw_row(rng: &mut Xoshiro256, dim: usize, inputs: Inputs) -> Vec<f32> {
    let zero_row = matches!(inputs, Inputs::SignedZeros) && rng.chance(0.25);
    (0..dim)
        .map(|_| {
            let x = rng.next_f32() * 2.0 - 1.0;
            match inputs {
                Inputs::Unit => x,
                Inputs::Large => x * 1e5,
                Inputs::SignedZeros if zero_row || rng.chance(0.5) => {
                    if rng.chance(0.5) {
                        0.0
                    } else {
                        -0.0
                    }
                }
                Inputs::SignedZeros => x,
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deliveries of each kind a segmented gather produced.
#[derive(Default)]
struct SegmentKinds {
    lent_spans: usize,
    lent_rows: usize,
    owned: usize,
}

/// Gather the projected rows `flat` (`dim` wide, in delivery order) cut at
/// random points: a run of rows lent as one span (a vertex's inbox), a
/// single row lent (a broadcast ref's payload in the table), or a single
/// row handed over owned (`aggregate`).
fn gather_in_segments<'a>(
    layer: &LayerView<'_>,
    rng: &mut Xoshiro256,
    dim: usize,
    flat: &'a [f32],
    kinds: &mut SegmentKinds,
) -> AggState<'a> {
    let n = flat.len() / dim;
    let mut agg = layer.init_agg(n);
    let mut i = 0;
    while i < n {
        let row = &flat[i * dim..(i + 1) * dim];
        match rng.below(3) {
            0 => {
                let len = 1 + rng.below((n - i) as u64) as usize;
                let data = &flat[i * dim..(i + len) * dim];
                layer.gather_rows(&mut agg, RowsIn::Rows(LentRows::flat(dim, data)));
                kinds.lent_spans += 1;
                i += len;
            }
            1 => {
                layer.gather_row(&mut agg, row, 1);
                kinds.lent_rows += 1;
                i += 1;
            }
            _ => {
                layer.aggregate(&mut agg, row.to_vec());
                kinds.owned += 1;
                i += 1;
            }
        }
    }
    agg
}

#[test]
fn source_side_projection_is_bit_identical_to_the_receiver_side_formula() {
    let src_out_degree = 3;
    let mut rng = Xoshiro256::seed_from_u64(0x6A7);
    let mut cases = 0;
    let mut kinds = SegmentKinds::default();
    // in_dim <, =, > out_dim
    for (in_dim, out_dim) in [(4usize, 16usize), (8, 8), (16, 4)] {
        for heads in [1usize, 2, 4] {
            for n_msgs in [0usize, 1, 300] {
                for inputs in [Inputs::Unit, Inputs::SignedZeros, Inputs::Large] {
                    let seed = rng.next_u64();
                    let model = GnnModel::gat(in_dim, out_dim, heads, 1, 3, false, seed);
                    let layer = model.layer_view(0);
                    assert_eq!(layer.annotations().msg_dim, out_dim);

                    let state = draw_row(&mut rng, in_dim, inputs);
                    let msgs: Vec<Vec<f32>> = (0..n_msgs)
                        .map(|_| draw_row(&mut rng, in_dim, inputs))
                        .collect();

                    let want = receiver_side_gat(&model, heads, &state, &msgs);
                    assert!(
                        want.iter().all(|x| x.is_finite()),
                        "case must be NaN-free: {in_dim}->{out_dim} heads {heads} \
                         msgs {n_msgs} {inputs:?}"
                    );
                    let flat: Vec<f32> = msgs
                        .iter()
                        .flat_map(|m| layer.apply_edge(m, src_out_degree))
                        .collect();
                    let own = layer.apply_edge(&state, src_out_degree);
                    for segmented in [false, true] {
                        for own_msg in [&[][..], &own[..]] {
                            let agg = if segmented {
                                gather_in_segments(&layer, &mut rng, out_dim, &flat, &mut kinds)
                            } else {
                                let mut agg = layer.init_agg(msgs.len());
                                for m in &msgs {
                                    layer.aggregate(&mut agg, layer.apply_edge(m, src_out_degree));
                                }
                                agg
                            };
                            assert_eq!(agg.count() as usize, n_msgs);
                            let node = NodeCtx {
                                id: 1,
                                state: &state,
                                in_degree: n_msgs as u32,
                                out_degree: 3,
                                own_msg,
                            };
                            let mut got = Vec::new();
                            layer.apply_node(&node, agg, &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{in_dim}->{out_dim} heads {heads} msgs {n_msgs} {inputs:?} \
                                 segmented {segmented} own given {}",
                                !own_msg.is_empty()
                            );
                        }
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 81);
    // Every kind of segment was cut somewhere.
    assert!(kinds.lent_spans > 0 && kinds.lent_rows > 0 && kinds.owned > 0);
}

#[test]
fn signed_zero_and_far_apart_logits_take_the_same_bits() {
    // Hand-built logits instead of drawn ones: with `a_src` zeroed except
    // one lane per head, message k's logit is exactly its value in that
    // lane — ±0.0, ±200 and ±1e6 (negative ones go through the leaky
    // slope; every weight but the largest underflows to exactly 0).
    let (in_dim, out_dim, heads) = (4usize, 4usize, 2usize);
    let mut model = GnnModel::gat(in_dim, out_dim, heads, 1, 3, false, 9);
    let (w, a_src, a_dst) = {
        let lp = &model.layers[0];
        (lp.w, lp.a_src.unwrap(), lp.a_dst.unwrap())
    };
    // W = identity, so the projected row is the embedding itself.
    for r in 0..in_dim {
        for c in 0..out_dim {
            model
                .params
                .get_mut(w)
                .set(r, c, if r == c { 1.0 } else { 0.0 });
        }
    }
    for c in 0..out_dim {
        model
            .params
            .get_mut(a_src)
            .set(0, c, if c % 2 == 0 { 1.0 } else { 0.0 });
        model.params.get_mut(a_dst).set(0, c, 0.0);
    }
    let msgs: Vec<Vec<f32>> = vec![
        vec![0.0, 1.0, -0.0, 2.0],
        vec![-0.0, 3.0, 0.0, 4.0],
        vec![200.0, 5.0, -1e6, 6.0],
        vec![-200.0, 7.0, 1e6, 8.0],
    ];
    let state = vec![0.5, -0.5, 0.25, 0.0];
    let layer = model.layer_view(0);
    let src_out_degree = 1;
    let want = receiver_side_gat(&model, heads, &state, &msgs);
    assert!(want.iter().all(|x| x.is_finite()));
    let own = layer.apply_edge(&state, src_out_degree);
    for own_msg in [&[][..], &own[..]] {
        let mut agg = layer.init_agg(msgs.len());
        for m in &msgs {
            layer.aggregate(&mut agg, layer.apply_edge(m, src_out_degree));
        }
        let node = NodeCtx {
            id: 0,
            state: &state,
            in_degree: 4,
            out_degree: 1,
            own_msg,
        };
        let mut got = Vec::new();
        layer.apply_node(&node, agg, &mut got);
        assert_eq!(bits(&got), bits(&want));
        // Head 0 is dominated by the 200 logit, head 1 by the 1e6 one: the
        // weights of the others underflow, so the output is that message's
        // row.
        assert_eq!(got, vec![200.0, 5.0, 1e6, 8.0]);
    }
}

/// The union holds one row per entry and counts its entries, and a merge
/// appends the other side's rows after its own.
#[test]
fn flat_union_counts_rows_and_merges_in_delivery_order() {
    let union = |dim, rows: Vec<Cow<'static, [f32]>>| AggState::Union { dim, rows };
    assert_eq!(union(3, vec![]).count(), 0);
    static LENT: [f32; 6] = [0.0; 6];
    let rows = vec![
        Cow::Borrowed(&LENT[..3]),
        Cow::Borrowed(&LENT[3..]),
        Cow::Owned(vec![0.0; 3]),
        Cow::Borrowed(&LENT[..3]),
    ];
    assert_eq!(union(3, rows).count(), 4);
    // Zero-width rows: nothing to count.
    assert_eq!(union(0, vec![Cow::Borrowed(&[][..])]).count(), 0);

    let model = GnnModel::gat(3, 4, 2, 1, 3, false, 5);
    let layer = model.layer_view(0);
    let row = |k: usize| -> Vec<f32> { (0..4).map(|c| (k * 10 + c) as f32).collect() };
    let inbox: Vec<f32> = (0..2).flat_map(row).collect();
    let table = row(2);
    let mut left = layer.init_agg(2);
    assert_eq!(left.count(), 0);
    layer.gather_rows(&mut left, RowsIn::Rows(LentRows::flat(4, &inbox)));
    let mut right = layer.init_agg(3);
    layer.gather_row(&mut right, &table, 1);
    for k in 3..5 {
        layer.aggregate(&mut right, row(k));
    }
    layer.merge_agg(&mut left, right);
    assert_eq!(left.count(), 5);
    let want = AggState::Union {
        dim: 4,
        rows: vec![
            Cow::Borrowed(&inbox[..4]),
            Cow::Borrowed(&inbox[4..]),
            Cow::Borrowed(&table[..]),
            Cow::Owned(row(3)),
            Cow::Owned(row(4)),
        ],
    };
    assert_eq!(left, want);
    // The lent rows are the lenders' own lanes, not copies: each inbox
    // row is an entry of its own.
    let AggState::Union { rows, .. } = &left else {
        panic!("GAT gathers a union");
    };
    assert!(matches!(&rows[0], Cow::Borrowed(s) if s.as_ptr() == inbox.as_ptr()));
    assert!(matches!(&rows[1], Cow::Borrowed(s) if s.as_ptr() == inbox[4..].as_ptr()));
    assert!(matches!(&rows[2], Cow::Borrowed(s) if s.as_ptr() == table.as_ptr()));
    // Merging the identity changes nothing.
    let before = left.clone();
    layer.merge_agg(&mut left, layer.init_agg(0));
    assert_eq!(left, before);
}

/// One `apply_node` call of the isolation schedule: a layer, its heads, and
/// a node with its raw in-messages.
struct ScheduledCall {
    model: usize,
    layer: usize,
    heads: usize,
    state: Vec<f32>,
    msgs: Vec<Vec<f32>>,
}

/// Run `calls` in order on this thread, each through the source-side
/// path twice — own projection recomputed, then given — and hold each to
/// the receiver-side formula bit for bit.
fn run_schedule(models: &[GnnModel], calls: &[ScheduledCall]) {
    let src_out_degree = 2;
    for (i, call) in calls.iter().enumerate() {
        let model = &models[call.model];
        let layer = model.layer_view(call.layer);
        let want = receiver_side_gat_at(model, call.layer, call.heads, &call.state, &call.msgs);
        let flat: Vec<f32> = call
            .msgs
            .iter()
            .flat_map(|m| layer.apply_edge(m, src_out_degree))
            .collect();
        let dim = layer.annotations().msg_dim;
        let mut agg = layer.init_agg(call.msgs.len());
        layer.gather_rows(&mut agg, RowsIn::Rows(LentRows::flat(dim, &flat)));
        let own = layer.apply_edge(&call.state, src_out_degree);
        for own_msg in [&[][..], &own[..]] {
            let node = NodeCtx {
                id: i as u64,
                state: &call.state,
                in_degree: call.msgs.len() as u32,
                out_degree: 2,
                own_msg,
            };
            // A stale, wider output buffer is overwritten, not read.
            let mut got = vec![f32::NAN; 3 * dim];
            layer.apply_node(&node, agg.clone(), &mut got);
            assert_eq!(
                bits(&got),
                bits(&want),
                "call {i}: model {} layer {} with {} messages, own given {}",
                call.model,
                call.layer,
                call.msgs.len(),
                !own_msg.is_empty()
            );
        }
    }
}

/// The attention scratch is kept per thread across vertices and layers: a
/// call must never read what an earlier one left there. Two GAT models
/// with different heads and widths interleave on one thread — a hub of
/// 10k messages followed by one-message, few-message and message-less
/// vertices, wide layers before narrow ones and back — and the same
/// schedule runs on 1, 2 and 4 threads at once.
#[test]
fn attention_scratch_is_isolated_across_calls_layers_and_threads() {
    // (in, hidden, heads): 4 heads × 16 lanes and 1 head × 6 lanes.
    let models = [
        GnnModel::gat(5, 64, 4, 2, 3, false, 0xA1),
        GnnModel::gat(7, 6, 1, 2, 3, false, 0xB2),
    ];
    let heads = [4usize, 1];
    let mut rng = Xoshiro256::seed_from_u64(0x5C7A);
    let mut calls = Vec::new();
    for &(model, layer, n_msgs) in &[
        (0, 0, 10_000),
        (1, 0, 1),
        (0, 1, 5),
        (1, 1, 0),
        (0, 0, 0),
        (1, 0, 10_000),
        (0, 1, 1),
        (1, 1, 7),
        (0, 0, 3),
        (1, 0, 2),
    ] {
        let lp = &models[model].layers[layer];
        let inputs = if rng.chance(0.5) {
            Inputs::Unit
        } else {
            Inputs::SignedZeros
        };
        calls.push(ScheduledCall {
            model,
            layer,
            heads: heads[model],
            state: draw_row(&mut rng, lp.in_dim, inputs),
            msgs: (0..n_msgs)
                .map(|_| draw_row(&mut rng, lp.in_dim, inputs))
                .collect(),
        });
    }
    for threads in [1usize, 2, 4] {
        #[expect(
            clippy::disallowed_methods,
            reason = "the schedule runs on its own threads at once to check the per-thread scratch"
        )]
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| run_schedule(&models, &calls));
            }
        });
    }
}
