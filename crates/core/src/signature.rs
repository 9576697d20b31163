//! Layer-wise model signatures (paper §IV-B-1).
//!
//! At save time the paper "generates layer-wise signature files" recording
//! parameters **and** the decorator annotations, so that the inference
//! pipeline can re-assemble the computation flow — including whether a
//! layer's aggregate may be partially gathered — "to avoid excessive manual
//! configurations". This module is that mechanism: a versioned binary
//! format over the workspace wire codec, with structural validation on
//! load.

use crate::models::{GnnModel, HeadParams, LayerKind, LayerParams, PoolOp};
use inferturbo_common::codec::{bytes_len, varint_len, Decode, Encode, WireReader, WireWriter};
use inferturbo_common::{Error, Result};
use inferturbo_tensor::nn::Activation;
use inferturbo_tensor::optim::ParamSet;
use inferturbo_tensor::Matrix;
use std::path::Path;

const MAGIC: &[u8; 6] = b"ITSIG1";

fn encode_matrix(w: &mut WireWriter, m: &Matrix) {
    w.put_varint(m.rows() as u64);
    w.put_varint(m.cols() as u64);
    w.put_f32_lanes(m.data());
}

fn matrix_len(m: &Matrix) -> usize {
    varint_len(m.rows() as u64) + varint_len(m.cols() as u64) + m.data().len() * 4
}

fn decode_matrix(r: &mut WireReader<'_>) -> Result<Matrix> {
    let rows = r.get_varint()? as usize;
    let cols = r.get_varint()? as usize;
    let total = rows
        .checked_mul(cols)
        .ok_or_else(|| Error::Codec("matrix size overflow".into()))?;
    let mut data = Vec::new();
    r.get_f32_lanes_into(total, &mut data)?;
    Matrix::try_from_vec(rows, cols, data)
}

const KIND_GCN: u8 = 1;
const KIND_SAGE: u8 = 2;
const KIND_GAT: u8 = 3;

fn encode_opt_idx(w: &mut WireWriter, v: Option<usize>) {
    match v {
        None => w.put_u8(0),
        Some(i) => {
            w.put_u8(1);
            w.put_varint(i as u64);
        }
    }
}

fn opt_idx_len(v: Option<usize>) -> usize {
    1 + v.map_or(0, |i| varint_len(i as u64))
}

fn decode_opt_idx(r: &mut WireReader<'_>) -> Result<Option<usize>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_varint()? as usize)),
        t => Err(Error::Codec(format!("bad option tag {t}"))),
    }
}

impl Encode for GnnModel {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(MAGIC);
        w.put_u8(self.multilabel as u8);
        // parameters
        w.put_varint(self.params.len() as u64);
        for (name, m) in self.params.iter() {
            w.put_str(name);
            encode_matrix(w, m);
        }
        // layers with annotations
        w.put_varint(self.layers.len() as u64);
        for lp in &self.layers {
            match lp.kind {
                LayerKind::Gcn => w.put_u8(KIND_GCN),
                LayerKind::Sage(p) => {
                    w.put_u8(KIND_SAGE);
                    w.put_u8(p.tag());
                }
                LayerKind::Gat { heads } => {
                    w.put_u8(KIND_GAT);
                    w.put_varint(heads as u64);
                }
            }
            w.put_str(&lp.act.tag());
            w.put_varint(lp.in_dim as u64);
            w.put_varint(lp.out_dim as u64);
            w.put_varint(lp.w as u64);
            encode_opt_idx(w, lp.w_self);
            w.put_varint(lp.bias as u64);
            encode_opt_idx(w, lp.a_src);
            encode_opt_idx(w, lp.a_dst);
        }
        // head
        w.put_varint(self.head.w as u64);
        w.put_varint(self.head.bias as u64);
        w.put_varint(self.head.classes as u64);
    }

    fn encoded_len(&self) -> usize {
        let params: usize = self
            .params
            .iter()
            .map(|(name, m)| bytes_len(name.len()) + matrix_len(m))
            .sum();
        let layers: usize = self
            .layers
            .iter()
            .map(|lp| {
                let kind = match lp.kind {
                    LayerKind::Gcn => 1,
                    LayerKind::Sage(_) => 2,
                    LayerKind::Gat { heads } => 1 + varint_len(heads as u64),
                };
                kind + bytes_len(lp.act.tag().len())
                    + varint_len(lp.in_dim as u64)
                    + varint_len(lp.out_dim as u64)
                    + varint_len(lp.w as u64)
                    + opt_idx_len(lp.w_self)
                    + varint_len(lp.bias as u64)
                    + opt_idx_len(lp.a_src)
                    + opt_idx_len(lp.a_dst)
            })
            .sum();
        bytes_len(MAGIC.len())
            + 1
            + varint_len(self.params.len() as u64)
            + params
            + varint_len(self.layers.len() as u64)
            + layers
            + varint_len(self.head.w as u64)
            + varint_len(self.head.bias as u64)
            + varint_len(self.head.classes as u64)
    }
}

impl Decode for GnnModel {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let magic = r.get_bytes()?;
        if magic != MAGIC {
            return Err(Error::Codec("not an InferTurbo signature file".into()));
        }
        let multilabel = r.get_u8()? != 0;
        let n_params = r.get_varint()? as usize;
        let mut params = ParamSet::new();
        for _ in 0..n_params {
            let name = r.get_string()?;
            let m = decode_matrix(r)?;
            params.add(name, m);
        }
        let n_layers = r.get_varint()? as usize;
        let mut layers = Vec::with_capacity(n_layers.min(1024));
        for _ in 0..n_layers {
            let kind = match r.get_u8()? {
                KIND_GCN => LayerKind::Gcn,
                KIND_SAGE => {
                    let p = PoolOp::from_tag(r.get_u8()?)
                        .ok_or_else(|| Error::Codec("bad pool op".into()))?;
                    LayerKind::Sage(p)
                }
                KIND_GAT => LayerKind::Gat {
                    heads: r.get_varint()? as usize,
                },
                t => return Err(Error::Codec(format!("bad layer kind {t}"))),
            };
            let act = Activation::from_tag(&r.get_string()?)
                .ok_or_else(|| Error::Codec("bad activation tag".into()))?;
            layers.push(LayerParams {
                kind,
                act,
                in_dim: r.get_varint()? as usize,
                out_dim: r.get_varint()? as usize,
                w: r.get_varint()? as usize,
                w_self: decode_opt_idx(r)?,
                bias: r.get_varint()? as usize,
                a_src: decode_opt_idx(r)?,
                a_dst: decode_opt_idx(r)?,
            });
        }
        let head = HeadParams {
            w: r.get_varint()? as usize,
            bias: r.get_varint()? as usize,
            classes: r.get_varint()? as usize,
        };
        let model = GnnModel {
            params,
            layers,
            head,
            multilabel,
        };
        validate(&model)?;
        Ok(model)
    }
}

/// Structural validation: every parameter index must exist and have the
/// shape its layer claims.
fn validate(model: &GnnModel) -> Result<()> {
    let check = |idx: usize, rows: usize, cols: usize, what: &str| -> Result<()> {
        if idx >= model.params.len() {
            return Err(Error::InvalidConfig(format!(
                "{what}: parameter index {idx} out of range"
            )));
        }
        let m = model.params.get(idx);
        if m.shape() != (rows, cols) {
            return Err(Error::InvalidConfig(format!(
                "{what}: expected {rows}x{cols}, found {:?}",
                m.shape()
            )));
        }
        Ok(())
    };
    if model.layers.is_empty() {
        return Err(Error::InvalidConfig("model has no layers".into()));
    }
    let mut prev_out = model.layers[0].in_dim;
    for (i, lp) in model.layers.iter().enumerate() {
        if lp.in_dim != prev_out {
            return Err(Error::InvalidConfig(format!(
                "layer {i} input {} does not chain from previous output {prev_out}",
                lp.in_dim
            )));
        }
        check(lp.w, lp.in_dim, lp.out_dim, "layer weight")?;
        check(lp.bias, 1, lp.out_dim, "layer bias")?;
        match lp.kind {
            LayerKind::Sage(_) => {
                let ws = lp
                    .w_self
                    .ok_or_else(|| Error::InvalidConfig("SAGE missing w_self".into()))?;
                check(ws, lp.in_dim, lp.out_dim, "SAGE self weight")?;
            }
            LayerKind::Gat { heads } => {
                if heads == 0 || lp.out_dim % heads != 0 {
                    return Err(Error::InvalidConfig(format!(
                        "GAT layer {i}: {heads} heads do not divide {}",
                        lp.out_dim
                    )));
                }
                let a_src = lp
                    .a_src
                    .ok_or_else(|| Error::InvalidConfig("GAT missing a_src".into()))?;
                let a_dst = lp
                    .a_dst
                    .ok_or_else(|| Error::InvalidConfig("GAT missing a_dst".into()))?;
                check(a_src, 1, lp.out_dim, "GAT a_src")?;
                check(a_dst, 1, lp.out_dim, "GAT a_dst")?;
            }
            LayerKind::Gcn => {}
        }
        prev_out = lp.out_dim;
    }
    check(model.head.w, prev_out, model.head.classes, "head weight")?;
    check(model.head.bias, 1, model.head.classes, "head bias")?;
    Ok(())
}

/// Save a model signature to disk.
pub fn save(model: &GnnModel, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, model.to_bytes())?;
    Ok(())
}

/// Load and validate a model signature from disk.
pub fn load(path: impl AsRef<Path>) -> Result<GnnModel> {
    let bytes = std::fs::read(path)?;
    GnnModel::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::GasLayer;

    fn models() -> Vec<GnnModel> {
        vec![
            GnnModel::sage(6, 8, 2, 3, false, PoolOp::Mean, 1),
            GnnModel::sage(6, 8, 2, 121, true, PoolOp::Max, 2),
            GnnModel::gcn(10, 4, 3, 2, false, 3),
            GnnModel::gat(6, 8, 2, 2, 3, false, 4),
        ]
    }

    #[test]
    fn signature_roundtrips_weights_and_annotations() {
        for m in models() {
            let bytes = m.to_bytes();
            let got = GnnModel::from_bytes(&bytes).unwrap();
            assert_eq!(got.n_layers(), m.n_layers());
            assert_eq!(got.multilabel, m.multilabel);
            assert_eq!(got.classes(), m.classes());
            for i in 0..m.params.len() {
                assert_eq!(got.params.get(i).data(), m.params.get(i).data());
                assert_eq!(got.params.name(i), m.params.name(i));
            }
            // annotations survive (the partial-gather contract)
            for l in 0..m.n_layers() {
                assert_eq!(
                    got.layer_view(l).annotations(),
                    m.layer_view(l).annotations()
                );
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("inferturbo-sig-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.itsig");
        let m = GnnModel::gat(6, 8, 2, 1, 3, false, 9);
        save(&m, &path).unwrap();
        let got = load(&path).unwrap();
        assert_eq!(got.params.get(0).data(), m.params.get(0).data());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_rejected() {
        let m = GnnModel::gcn(4, 4, 1, 2, false, 1);
        let mut bytes = m.to_bytes();
        bytes[1] ^= 0xFF;
        assert!(GnnModel::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_signature_rejected() {
        let m = GnnModel::gcn(4, 4, 1, 2, false, 1);
        let bytes = m.to_bytes();
        for cut in [10, bytes.len() / 2, bytes.len() - 1] {
            assert!(GnnModel::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupted_shape_rejected() {
        // Break the chain: make layer 1 claim a wrong input width.
        let mut m = GnnModel::gcn(4, 4, 2, 2, false, 1);
        m.layers[1].in_dim = 99;
        let bytes = m.to_bytes();
        let err = GnnModel::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("chain"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(load("/nonexistent/model.itsig").is_err());
    }
}
