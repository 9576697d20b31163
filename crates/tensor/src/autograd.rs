//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records the forward pass as a flat list of nodes; calling
//! [`Tape::backward`] walks the list in reverse, accumulating gradients.
//! The op set is exactly what the paper's Fig. 3 training pseudo-code needs:
//! GEMM, bias broadcast, element-wise arithmetic, activations, row gather
//! (edge lookup by `src_index`), segment sum/mean/max (the commutative
//! Gather), segment softmax (GAT's attention reduce), the head-wise kernels
//! of multi-head attention, and two fused masked losses.
//!
//! The tape is rebuilt every training step (define-by-run); parameters live
//! outside the tape and are registered as `param` leaves so the optimizer
//! can read their gradients back by [`Var`] handle.

use crate::matrix::{segment_counts, Matrix};
use crate::nn::Activation;
use std::rc::Rc;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    MatMul {
        a: Var,
        b: Var,
    },
    AddBias {
        x: Var,
        bias: Var,
    },
    Add {
        a: Var,
        b: Var,
    },
    Sub {
        a: Var,
        b: Var,
    },
    MulColBroadcast {
        x: Var,
        w: Var,
    },
    Scale {
        x: Var,
        alpha: f32,
    },
    Act {
        x: Var,
        act: Activation,
    },
    ConcatCols {
        a: Var,
        b: Var,
    },
    GatherRows {
        x: Var,
        idx: Rc<Vec<u32>>,
    },
    SegmentSum {
        x: Var,
        seg: Rc<Vec<u32>>,
    },
    SegmentMean {
        x: Var,
        seg: Rc<Vec<u32>>,
    },
    SegmentMax {
        x: Var,
        argmax: Vec<u32>,
    },
    SegmentSoftmax {
        x: Var,
        seg: Rc<Vec<u32>>,
    },
    HeadwiseDot {
        x: Var,
        a: Var,
        heads: usize,
    },
    MulHeadBroadcast {
        x: Var,
        alpha: Var,
        heads: usize,
    },
    SoftmaxXent {
        logits: Var,
        labels: Rc<Vec<u32>>,
        mask: Rc<Vec<bool>>,
        probs: Matrix,
        n_masked: usize,
    },
    BceLogits {
        logits: Var,
        targets: Rc<Matrix>,
        mask: Rc<Vec<bool>>,
        n_masked: usize,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    requires_grad: bool,
}

/// Reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes (useful for memory diagnostics in tests).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Tape::backward`]; `None` if it never
    /// received one (not on the path to the loss, or grad not required).
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Constant input (no gradient).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Trainable input (gradient accumulated on backward).
    pub fn param(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    // ---- differentiable ops ----------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMul { a, b }, rg)
    }

    /// `x + bias`, bias broadcast over rows.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let v = self.value(x).add_row_broadcast(self.value(bias));
        let rg = self.rg(x) || self.rg(bias);
        self.push(v, Op::AddBias { x, bias }, rg)
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.value(a).clone();
        v.add_assign(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add { a, b }, rg)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.value(a).clone();
        v.axpy(-1.0, self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub { a, b }, rg)
    }

    /// `out[r][c] = x[r][c] * w[r][0]` — per-row (e.g. per-edge) scaling,
    /// used for GCN's symmetric normalisation coefficients.
    pub fn mul_col_broadcast(&mut self, x: Var, w: Var) -> Var {
        let (vx, vw) = (self.value(x), self.value(w));
        assert_eq!(vw.cols(), 1, "mul_col_broadcast weight must be column");
        assert_eq!(vx.rows(), vw.rows(), "mul_col_broadcast rows");
        let mut v = vx.clone();
        for r in 0..v.rows() {
            let s = vw.get(r, 0);
            for val in v.row_mut(r) {
                *val *= s;
            }
        }
        let rg = self.rg(x) || self.rg(w);
        self.push(v, Op::MulColBroadcast { x, w }, rg)
    }

    pub fn scale(&mut self, x: Var, alpha: f32) -> Var {
        let mut v = self.value(x).clone();
        v.scale(alpha);
        let rg = self.rg(x);
        self.push(v, Op::Scale { x, alpha }, rg)
    }

    pub fn activation(&mut self, x: Var, act: Activation) -> Var {
        let v = self.value(x).map(|t| act.forward(t));
        let rg = self.rg(x);
        self.push(v, Op::Act { x, act }, rg)
    }

    pub fn relu(&mut self, x: Var) -> Var {
        self.activation(x, Activation::Relu)
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatCols { a, b }, rg)
    }

    pub fn gather_rows(&mut self, x: Var, idx: Rc<Vec<u32>>) -> Var {
        let v = self.value(x).gather_rows(&idx);
        let rg = self.rg(x);
        self.push(v, Op::GatherRows { x, idx }, rg)
    }

    pub fn segment_sum(&mut self, x: Var, seg: Rc<Vec<u32>>, n_segments: usize) -> Var {
        let v = self.value(x).segment_sum(&seg, n_segments);
        let rg = self.rg(x);
        self.push(v, Op::SegmentSum { x, seg }, rg)
    }

    pub fn segment_mean(&mut self, x: Var, seg: Rc<Vec<u32>>, n_segments: usize) -> Var {
        let v = self.value(x).segment_mean(&seg, n_segments);
        let rg = self.rg(x);
        self.push(v, Op::SegmentMean { x, seg }, rg)
    }

    pub fn segment_max(&mut self, x: Var, seg: Rc<Vec<u32>>, n_segments: usize) -> Var {
        let (v, argmax) = self.value(x).segment_max(&seg, n_segments);
        let rg = self.rg(x);
        self.push(v, Op::SegmentMax { x, argmax }, rg)
    }

    pub fn segment_softmax(&mut self, x: Var, seg: Rc<Vec<u32>>, n_segments: usize) -> Var {
        let v = self.value(x).segment_softmax(&seg, n_segments);
        let rg = self.rg(x);
        self.push(v, Op::SegmentSoftmax { x, seg }, rg)
    }

    /// `out[n][h] = Σ_k x[n][h*dh+k] * a[0][h*dh+k]` — the attention-vector
    /// dot product of GAT, per head.
    pub fn headwise_dot(&mut self, x: Var, a: Var, heads: usize) -> Var {
        let (vx, va) = (self.value(x), self.value(a));
        assert_eq!(va.rows(), 1, "attention vector must be a row");
        assert_eq!(vx.cols(), va.cols(), "headwise_dot width");
        assert_eq!(vx.cols() % heads, 0, "width divisible by heads");
        let dh = vx.cols() / heads;
        let mut v = Matrix::zeros(vx.rows(), heads);
        for n in 0..vx.rows() {
            let row = vx.row(n);
            for h in 0..heads {
                let mut acc = 0.0;
                for k in 0..dh {
                    acc += row[h * dh + k] * va.get(0, h * dh + k);
                }
                v.set(n, h, acc);
            }
        }
        let rg = self.rg(x) || self.rg(a);
        self.push(v, Op::HeadwiseDot { x, a, heads }, rg)
    }

    /// `out[e][h*dh+k] = x[e][h*dh+k] * alpha[e][h]` — apply per-head
    /// attention weights to per-head message blocks.
    pub fn mul_head_broadcast(&mut self, x: Var, alpha: Var, heads: usize) -> Var {
        let (vx, val) = (self.value(x), self.value(alpha));
        assert_eq!(vx.rows(), val.rows(), "mul_head_broadcast rows");
        assert_eq!(val.cols(), heads, "alpha width must equal heads");
        assert_eq!(vx.cols() % heads, 0, "width divisible by heads");
        let dh = vx.cols() / heads;
        let mut v = vx.clone();
        for e in 0..v.rows() {
            for h in 0..heads {
                let a = val.get(e, h);
                for k in 0..dh {
                    let idx = h * dh + k;
                    let cur = v.get(e, idx);
                    v.set(e, idx, cur * a);
                }
            }
        }
        let rg = self.rg(x) || self.rg(alpha);
        self.push(v, Op::MulHeadBroadcast { x, alpha, heads }, rg)
    }

    /// Masked mean softmax cross-entropy. `labels[i]` is the class of row
    /// `i`; rows with `mask[i] == false` contribute nothing (the mini-batch
    /// trainer masks out neighbourhood nodes that are not training targets).
    /// Returns a `1x1` loss node.
    pub fn softmax_xent(&mut self, logits: Var, labels: Rc<Vec<u32>>, mask: Rc<Vec<bool>>) -> Var {
        let l = self.value(logits);
        assert_eq!(l.rows(), labels.len(), "labels length");
        assert_eq!(l.rows(), mask.len(), "mask length");
        let mut probs = Matrix::zeros(l.rows(), l.cols());
        let mut loss = 0.0f64;
        let mut n_masked = 0usize;
        for r in 0..l.rows() {
            let row = l.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &x in row {
                denom += (x - max).exp();
            }
            for (c, &x) in row.iter().enumerate() {
                probs.set(r, c, (x - max).exp() / denom);
            }
            if mask[r] {
                n_masked += 1;
                let p = probs.get(r, labels[r] as usize).max(1e-12);
                loss -= (p as f64).ln();
            }
        }
        let n_masked = n_masked.max(1);
        let v = Matrix::from_vec(1, 1, vec![(loss / n_masked as f64) as f32]);
        let rg = self.rg(logits);
        self.push(
            v,
            Op::SoftmaxXent {
                logits,
                labels,
                mask,
                probs,
                n_masked,
            },
            rg,
        )
    }

    /// Masked mean binary cross-entropy with logits (multi-label tasks,
    /// e.g. the PPI-like dataset with 121 independent labels).
    pub fn bce_with_logits(
        &mut self,
        logits: Var,
        targets: Rc<Matrix>,
        mask: Rc<Vec<bool>>,
    ) -> Var {
        let l = self.value(logits);
        assert_eq!(l.shape(), targets.shape(), "targets shape");
        assert_eq!(l.rows(), mask.len(), "mask length");
        let mut loss = 0.0f64;
        let mut n_masked = 0usize;
        for r in 0..l.rows() {
            if !mask[r] {
                continue;
            }
            n_masked += 1;
            for c in 0..l.cols() {
                let z = l.get(r, c);
                let t = targets.get(r, c);
                // numerically stable: max(z,0) - z*t + ln(1+e^{-|z|})
                let term = z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
                loss += term as f64;
            }
        }
        let denom = (n_masked.max(1) * l.cols()) as f64;
        let v = Matrix::from_vec(1, 1, vec![(loss / denom) as f32]);
        let rg = self.rg(logits);
        self.push(
            v,
            Op::BceLogits {
                logits,
                targets,
                mask,
                n_masked: n_masked.max(1),
            },
            rg,
        )
    }

    // ---- backward ---------------------------------------------------------

    fn accum(&mut self, v: Var, g: Matrix) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Run reverse-mode accumulation from `root` (must be `1x1`).
    pub fn backward(&mut self, root: Var) {
        {
            let shape = self.value(root).shape();
            assert_eq!(shape, (1, 1), "backward root must be scalar, got {shape:?}");
        }
        self.nodes[root.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=root.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(gy) = self.nodes[i].grad.clone() else {
                continue;
            };
            // Dispatch per-op; reads of input values borrow immutably, grad
            // accumulation happens through `accum` afterwards.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul { a, b } => {
                    let (a, b) = (*a, *b);
                    let ga = gy.matmul_nt(self.value(b));
                    let gb = self.value(a).matmul_tn(&gy);
                    self.accum(a, ga);
                    self.accum(b, gb);
                }
                Op::AddBias { x, bias } => {
                    let (x, bias) = (*x, *bias);
                    let mut gb = Matrix::zeros(1, gy.cols());
                    for r in 0..gy.rows() {
                        for c in 0..gy.cols() {
                            let cur = gb.get(0, c);
                            gb.set(0, c, cur + gy.get(r, c));
                        }
                    }
                    self.accum(x, gy.clone());
                    self.accum(bias, gb);
                }
                Op::Add { a, b } => {
                    let (a, b) = (*a, *b);
                    self.accum(a, gy.clone());
                    self.accum(b, gy);
                }
                Op::Sub { a, b } => {
                    let (a, b) = (*a, *b);
                    let mut neg = gy.clone();
                    neg.scale(-1.0);
                    self.accum(a, gy);
                    self.accum(b, neg);
                }
                Op::MulColBroadcast { x, w } => {
                    let (x, w) = (*x, *w);
                    let gx = {
                        let vw = self.value(w);
                        let mut gx = gy.clone();
                        for r in 0..gx.rows() {
                            let s = vw.get(r, 0);
                            for v in gx.row_mut(r) {
                                *v *= s;
                            }
                        }
                        gx
                    };
                    let gw = {
                        let vx = self.value(x);
                        let mut gw = Matrix::zeros(vx.rows(), 1);
                        for r in 0..vx.rows() {
                            let mut acc = 0.0;
                            for c in 0..vx.cols() {
                                acc += gy.get(r, c) * vx.get(r, c);
                            }
                            gw.set(r, 0, acc);
                        }
                        gw
                    };
                    self.accum(x, gx);
                    self.accum(w, gw);
                }
                Op::Scale { x, alpha } => {
                    let (x, alpha) = (*x, *alpha);
                    let mut gx = gy;
                    gx.scale(alpha);
                    self.accum(x, gx);
                }
                Op::Act { x, act } => {
                    let (x, act) = (*x, *act);
                    let gx = {
                        let vx = self.value(x);
                        let vy = &self.nodes[i].value;
                        let data: Vec<f32> = gy
                            .data()
                            .iter()
                            .zip(vx.data().iter().zip(vy.data()))
                            .map(|(g, (xin, yout))| g * act.derivative(*xin, *yout))
                            .collect();
                        Matrix::from_vec(gy.rows(), gy.cols(), data)
                    };
                    self.accum(x, gx);
                }
                Op::ConcatCols { a, b } => {
                    let (a, b) = (*a, *b);
                    let ca = self.value(a).cols();
                    let cb = self.value(b).cols();
                    let mut ga = Matrix::zeros(gy.rows(), ca);
                    let mut gb = Matrix::zeros(gy.rows(), cb);
                    for r in 0..gy.rows() {
                        ga.row_mut(r).copy_from_slice(&gy.row(r)[..ca]);
                        gb.row_mut(r).copy_from_slice(&gy.row(r)[ca..]);
                    }
                    self.accum(a, ga);
                    self.accum(b, gb);
                }
                Op::GatherRows { x, idx } => {
                    let (x, idx) = (*x, Rc::clone(idx));
                    let n = self.value(x).rows();
                    let gx = gy.segment_sum(&idx, n);
                    self.accum(x, gx);
                }
                Op::SegmentSum { x, seg } => {
                    let (x, seg) = (*x, Rc::clone(seg));
                    let gx = gy.gather_rows(&seg);
                    self.accum(x, gx);
                }
                Op::SegmentMean { x, seg } => {
                    let (x, seg) = (*x, Rc::clone(seg));
                    let counts = segment_counts(&seg, gy.rows());
                    let mut gx = gy.gather_rows(&seg);
                    for (r, &s) in seg.iter().enumerate() {
                        let c = counts[s as usize].max(1) as f32;
                        for v in gx.row_mut(r) {
                            *v /= c;
                        }
                    }
                    self.accum(x, gx);
                }
                Op::SegmentMax { x, argmax } => {
                    let (x, argmax) = (*x, argmax.clone());
                    let vx_shape = self.value(x).shape();
                    let mut gx = Matrix::zeros(vx_shape.0, vx_shape.1);
                    let cols = gy.cols();
                    for s in 0..gy.rows() {
                        for c in 0..cols {
                            let winner = argmax[s * cols + c];
                            if winner != u32::MAX {
                                let cur = gx.get(winner as usize, c);
                                gx.set(winner as usize, c, cur + gy.get(s, c));
                            }
                        }
                    }
                    self.accum(x, gx);
                }
                Op::SegmentSoftmax { x, seg } => {
                    let (x, seg) = (*x, Rc::clone(seg));
                    let y = &self.nodes[i].value;
                    let cols = y.cols();
                    let n_seg = seg.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
                    // dot[s][c] = Σ_{j in s} y[j][c] * gy[j][c]
                    let mut dot = vec![0.0f32; n_seg * cols];
                    for (j, &s) in seg.iter().enumerate() {
                        for c in 0..cols {
                            dot[s as usize * cols + c] += y.get(j, c) * gy.get(j, c);
                        }
                    }
                    let mut gx = Matrix::zeros(y.rows(), cols);
                    for (j, &s) in seg.iter().enumerate() {
                        for c in 0..cols {
                            let v = y.get(j, c) * (gy.get(j, c) - dot[s as usize * cols + c]);
                            gx.set(j, c, v);
                        }
                    }
                    self.accum(x, gx);
                }
                Op::HeadwiseDot { x, a, heads } => {
                    let (x, a, heads) = (*x, *a, *heads);
                    let (gx, ga) = {
                        let vx = self.value(x);
                        let va = self.value(a);
                        let dh = vx.cols() / heads;
                        let mut gx = Matrix::zeros(vx.rows(), vx.cols());
                        let mut ga = Matrix::zeros(1, va.cols());
                        for n in 0..vx.rows() {
                            for h in 0..heads {
                                let g = gy.get(n, h);
                                for k in 0..dh {
                                    let idx = h * dh + k;
                                    let cur = gx.get(n, idx);
                                    gx.set(n, idx, cur + g * va.get(0, idx));
                                    let cura = ga.get(0, idx);
                                    ga.set(0, idx, cura + g * vx.get(n, idx));
                                }
                            }
                        }
                        (gx, ga)
                    };
                    self.accum(x, gx);
                    self.accum(a, ga);
                }
                Op::MulHeadBroadcast { x, alpha, heads } => {
                    let (x, alpha, heads) = (*x, *alpha, *heads);
                    let (gx, galpha) = {
                        let vx = self.value(x);
                        let va = self.value(alpha);
                        let dh = vx.cols() / heads;
                        let mut gx = Matrix::zeros(vx.rows(), vx.cols());
                        let mut galpha = Matrix::zeros(va.rows(), va.cols());
                        for e in 0..vx.rows() {
                            for h in 0..heads {
                                let a = va.get(e, h);
                                let mut acc = 0.0;
                                for k in 0..dh {
                                    let idx = h * dh + k;
                                    let g = gy.get(e, idx);
                                    let cur = gx.get(e, idx);
                                    gx.set(e, idx, cur + g * a);
                                    acc += g * vx.get(e, idx);
                                }
                                galpha.set(e, h, acc);
                            }
                        }
                        (gx, galpha)
                    };
                    self.accum(x, gx);
                    self.accum(alpha, galpha);
                }
                Op::SoftmaxXent {
                    logits,
                    labels,
                    mask,
                    probs,
                    n_masked,
                } => {
                    let logits = *logits;
                    let scale = gy.get(0, 0) / *n_masked as f32;
                    let mut gl = probs.clone();
                    for r in 0..gl.rows() {
                        if !mask[r] {
                            for v in gl.row_mut(r) {
                                *v = 0.0;
                            }
                            continue;
                        }
                        let lbl = labels[r] as usize;
                        let cur = gl.get(r, lbl);
                        gl.set(r, lbl, cur - 1.0);
                        for v in gl.row_mut(r) {
                            *v *= scale;
                        }
                    }
                    self.accum(logits, gl);
                }
                Op::BceLogits {
                    logits,
                    targets,
                    mask,
                    n_masked,
                } => {
                    let logits_v = *logits;
                    let l = self.value(logits_v);
                    let scale = gy.get(0, 0) / (*n_masked as f32 * l.cols() as f32);
                    let mut gl = Matrix::zeros(l.rows(), l.cols());
                    for r in 0..l.rows() {
                        if !mask[r] {
                            continue;
                        }
                        for c in 0..l.cols() {
                            let z = l.get(r, c);
                            let sig = 1.0 / (1.0 + (-z).exp());
                            gl.set(r, c, (sig - targets.get(r, c)) * scale);
                        }
                    }
                    self.accum(logits_v, gl);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Check analytic vs central-difference numeric gradients for every
    /// entry of `param`. `build` must construct the same computation each
    /// call, returning the parameter's `Var` and the scalar loss `Var`.
    fn check_grads(build: impl Fn(&mut Tape, Matrix) -> (Var, Var), param: Matrix) {
        let mut tape = Tape::new();
        let (pvar, loss) = build(&mut tape, param.clone());
        tape.backward(loss);
        let analytic = tape.grad(pvar).expect("no gradient").clone();
        let eps = 1e-3f32;
        for r in 0..param.rows() {
            for c in 0..param.cols() {
                let mut plus = param.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = param.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let mut t1 = Tape::new();
                let (_, l1) = build(&mut t1, plus);
                let mut t2 = Tape::new();
                let (_, l2) = build(&mut t2, minus);
                let num = (t1.value(l1).get(0, 0) - t2.value(l2).get(0, 0)) / (2.0 * eps);
                let ana = analytic.get(r, c);
                let denom = num.abs().max(ana.abs()).max(1e-2);
                assert!(
                    (num - ana).abs() / denom < 2e-2,
                    "grad mismatch at ({r},{c}): numeric {num} analytic {ana}"
                );
            }
        }
    }

    /// Quadratic-ish scalarisation so the loss depends smoothly on outputs:
    /// loss = mean over masked softmax-xent of a projection.
    fn scalarise(t: &mut Tape, x: Var) -> Var {
        let cols = t.value(x).cols();
        let rows = t.value(x).rows();
        // project to 3 classes with a fixed matrix, then xent against class 0
        let proj = t.leaf(Matrix::from_fn(cols, 3, |r, c| {
            ((r * 3 + c) as f32 * 0.17).sin() * 0.5
        }));
        let logits = t.matmul(x, proj);
        let labels = Rc::new(vec![0u32; rows]);
        let mask = Rc::new(vec![true; rows]);
        t.softmax_xent(logits, labels, mask)
    }

    fn test_param(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.31).cos() * 0.8
        })
    }

    #[test]
    fn grad_matmul() {
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let x = t.leaf(test_param(5, 4));
                let y = t.matmul(x, pv);
                (pv, scalarise(t, y))
            },
            test_param(4, 3),
        );
    }

    #[test]
    fn grad_add_bias() {
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let x = t.leaf(test_param(4, 3));
                let y = t.add_bias(x, pv);
                (pv, scalarise(t, y))
            },
            test_param(1, 3),
        );
    }

    #[test]
    fn grad_activations() {
        for act in [
            Activation::Relu,
            Activation::LeakyRelu(0.2),
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            check_grads(
                |t, p| {
                    let pv = t.param(p);
                    let y = t.activation(pv, act);
                    (pv, scalarise(t, y))
                },
                // offset away from 0 to avoid the relu kink breaking the
                // finite-difference check
                Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.37).cos() + 0.11),
            );
        }
    }

    #[test]
    fn grad_gather_and_segment_sum() {
        let idx = Rc::new(vec![2u32, 0, 1, 2, 2]);
        let seg = Rc::new(vec![0u32, 1, 1, 0, 2]);
        check_grads(
            move |t, p| {
                let pv = t.param(p);
                let g = t.gather_rows(pv, Rc::clone(&idx));
                let s = t.segment_sum(g, Rc::clone(&seg), 3);
                (pv, scalarise(t, s))
            },
            test_param(3, 4),
        );
    }

    #[test]
    fn grad_segment_mean() {
        let seg = Rc::new(vec![0u32, 1, 1, 0, 1]);
        check_grads(
            move |t, p| {
                let pv = t.param(p);
                let s = t.segment_mean(pv, Rc::clone(&seg), 2);
                (pv, scalarise(t, s))
            },
            test_param(5, 3),
        );
    }

    #[test]
    fn grad_segment_max() {
        let seg = Rc::new(vec![0u32, 1, 1, 0, 1]);
        check_grads(
            move |t, p| {
                let pv = t.param(p);
                let s = t.segment_max(pv, Rc::clone(&seg), 2);
                (pv, scalarise(t, s))
            },
            // well-separated values so the argmax is stable under eps
            Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * 0.618 + 0.05),
        );
    }

    #[test]
    fn grad_segment_softmax() {
        let seg = Rc::new(vec![0u32, 0, 1, 1, 1]);
        check_grads(
            move |t, p| {
                let pv = t.param(p);
                let s = t.segment_softmax(pv, Rc::clone(&seg), 2);
                // scale up before scalarise so gradients are not vanishing
                let s2 = t.scale(s, 3.0);
                (pv, scalarise(t, s2))
            },
            test_param(5, 2),
        );
    }

    #[test]
    fn grad_headwise_dot() {
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let x = t.leaf(test_param(4, 6));
                let y = t.headwise_dot(x, pv, 2);
                (pv, scalarise(t, y))
            },
            test_param(1, 6),
        );
        // also w.r.t. x
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let a = t.leaf(test_param(1, 6));
                let y = t.headwise_dot(pv, a, 2);
                (pv, scalarise(t, y))
            },
            test_param(4, 6),
        );
    }

    #[test]
    fn grad_mul_head_broadcast() {
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let alpha = t.leaf(Matrix::from_fn(4, 2, |r, c| {
                    0.3 + 0.1 * ((r * 2 + c) as f32)
                }));
                let y = t.mul_head_broadcast(pv, alpha, 2);
                (pv, scalarise(t, y))
            },
            test_param(4, 6),
        );
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let x = t.leaf(test_param(4, 6));
                let y = t.mul_head_broadcast(x, pv, 2);
                (pv, scalarise(t, y))
            },
            test_param(4, 2),
        );
    }

    #[test]
    fn grad_concat_cols() {
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let x = t.leaf(test_param(4, 2));
                let y = t.concat_cols(pv, x);
                (pv, scalarise(t, y))
            },
            test_param(4, 3),
        );
    }

    #[test]
    fn grad_mul_col_broadcast() {
        check_grads(
            |t, p| {
                let pv = t.param(p);
                let w = t.leaf(Matrix::from_fn(4, 1, |r, _| 0.5 + 0.2 * r as f32));
                let y = t.mul_col_broadcast(pv, w);
                (pv, scalarise(t, y))
            },
            test_param(4, 3),
        );
    }

    #[test]
    fn grad_bce_with_logits() {
        let targets = Rc::new(Matrix::from_fn(4, 3, |r, c| ((r + c) % 2) as f32));
        let mask = Rc::new(vec![true, false, true, true]);
        check_grads(
            move |t, p| {
                let pv = t.param(p);
                let loss = t.bce_with_logits(pv, Rc::clone(&targets), Rc::clone(&mask));
                (pv, loss)
            },
            test_param(4, 3),
        );
    }

    #[test]
    fn grad_softmax_xent_masked() {
        let labels = Rc::new(vec![0u32, 2, 1, 0]);
        let mask = Rc::new(vec![true, true, false, true]);
        check_grads(
            move |t, p| {
                let pv = t.param(p);
                let loss = t.softmax_xent(pv, Rc::clone(&labels), Rc::clone(&mask));
                (pv, loss)
            },
            test_param(4, 3),
        );
    }

    #[test]
    fn masked_rows_get_zero_gradient() {
        let mut t = Tape::new();
        let p = t.param(test_param(3, 2));
        let labels = Rc::new(vec![0u32, 1, 0]);
        let mask = Rc::new(vec![true, false, true]);
        let loss = t.softmax_xent(p, labels, mask);
        t.backward(loss);
        let g = t.grad(p).unwrap();
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert!(g.row(0).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn leaf_receives_no_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(test_param(3, 3));
        let p = t.param(test_param(3, 3));
        let y = t.matmul(x, p);
        let loss = scalarise(&mut t, y);
        t.backward(loss);
        assert!(t.grad(x).is_none());
        assert!(t.grad(p).is_some());
    }

    #[test]
    fn gradient_accumulates_over_reuse() {
        // p used twice: y = p + p ⇒ dL/dp = 2 * dL/dy
        let mut t = Tape::new();
        let p = t.param(Matrix::from_vec(1, 1, vec![3.0]));
        let y = t.add(p, p);
        // loss = y -> need scalar; y is 1x1 already. Use scale to make a new
        // node so backward starts above p.
        let loss = t.scale(y, 1.0);
        t.backward(loss);
        assert_eq!(t.grad(p).unwrap().get(0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "backward root must be scalar")]
    fn backward_requires_scalar_root() {
        let mut t = Tape::new();
        let p = t.param(test_param(2, 2));
        t.backward(p);
    }
}
