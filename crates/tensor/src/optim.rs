//! First-order optimizers over named parameter collections.
//!
//! Training re-records the tape every step, so parameters live in a
//! [`ParamSet`] outside the tape. Each step the trainer registers them as
//! `param` leaves, runs backward, collects `(index, grad)` pairs, and hands
//! them to the optimizer.

use crate::matrix::Matrix;

/// A named, ordered set of trainable matrices.
#[derive(Debug, Default, Clone)]
pub struct ParamSet {
    names: Vec<String>,
    values: Vec<Matrix>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; returns its stable index.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> usize {
        self.names.push(name.into());
        self.values.push(value);
        self.values.len() - 1
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Matrix {
        &self.values[idx]
    }

    pub fn get_mut(&mut self, idx: usize) -> &mut Matrix {
        &mut self.values[idx]
    }

    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.names
            .iter()
            .map(|s| s.as_str())
            .zip(self.values.iter())
    }

    /// Global-norm gradient clipping: if the joint L2 norm of all grads
    /// exceeds `max_norm`, scale every grad down proportionally. Returns the
    /// pre-clip norm (handy for training diagnostics).
    pub fn clip_global_norm(grads: &mut [(usize, Matrix)], max_norm: f32) -> f32 {
        let total: f32 = grads.iter().map(|(_, g)| g.norm_sq()).sum::<f32>().sqrt();
        if total > max_norm && total > 0.0 {
            let s = max_norm / total;
            for (_, g) in grads.iter_mut() {
                g.scale(s);
            }
        }
        total
    }
}

/// A first-order optimizer.
pub trait Optimizer {
    /// Apply one update given `(param index, gradient)` pairs.
    fn step(&mut self, params: &mut ParamSet, grads: &[(usize, Matrix)]);
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &[(usize, Matrix)]) {
        if self.m.len() < params.len() {
            self.m.resize(params.len(), None);
            self.v.resize(params.len(), None);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (idx, grad) in grads {
            let m = self.m[*idx].get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            let v = self.v[*idx].get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            for ((m_i, v_i), g_i) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad.data())
            {
                *m_i = self.beta1 * *m_i + (1.0 - self.beta1) * g_i;
                *v_i = self.beta2 * *v_i + (1.0 - self.beta2) * g_i * g_i;
            }
            let p = params.get_mut(*idx);
            if self.weight_decay > 0.0 {
                let decay = self.weight_decay;
                let snapshot = p.clone();
                p.axpy(-self.lr * decay, &snapshot);
            }
            for ((p_i, m_i), v_i) in p.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = m_i / bc1;
                let v_hat = v_i / bc2;
                *p_i -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;
    use std::rc::Rc;

    /// Minimise `||x W - y||`-ish via softmax-xent on a toy problem and
    /// assert the loss decreases.
    fn train_toy(opt: &mut dyn Optimizer) -> (f32, f32) {
        let mut params = ParamSet::new();
        let w_idx = params.add(
            "w",
            Matrix::from_fn(4, 3, |r, c| ((r + c) as f32 * 0.3).sin()),
        );
        let x = Matrix::from_fn(8, 4, |r, c| ((r * 4 + c) as f32 * 0.17).cos());
        // Labels planted by a ground-truth linear model so the optimum has
        // near-zero loss and any working optimizer can cut the initial loss
        // in half quickly.
        let w_true = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.71).sin());
        let labels = Rc::new(x.matmul(&w_true).argmax_rows());
        let mask = Rc::new(vec![true; 8]);

        let loss_at = |params: &ParamSet| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let wv = t.param(params.get(w_idx).clone());
            let logits = t.matmul(xv, wv);
            let loss = t.softmax_xent(logits, Rc::clone(&labels), Rc::clone(&mask));
            t.value(loss).get(0, 0)
        };

        let initial = loss_at(&params);
        for _ in 0..60 {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let wv = t.param(params.get(w_idx).clone());
            let logits = t.matmul(xv, wv);
            let loss = t.softmax_xent(logits, Rc::clone(&labels), Rc::clone(&mask));
            t.backward(loss);
            let grads = vec![(w_idx, t.grad(wv).unwrap().clone())];
            opt.step(&mut params, &grads);
        }
        (initial, loss_at(&params))
    }

    #[test]
    fn adam_reduces_loss() {
        let mut opt = Adam::new(0.05);
        let (before, after) = train_toy(&mut opt);
        assert!(after < before * 0.5, "before {before} after {after}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut params = ParamSet::new();
        let idx = params.add("w", Matrix::full(2, 2, 1.0));
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        // zero gradient: only the decoupled decay acts
        let grads = vec![(idx, Matrix::zeros(2, 2))];
        opt.step(&mut params, &grads);
        for &v in params.get(idx).data() {
            assert!((v - 0.95).abs() < 1e-6);
        }
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let mut grads = vec![(0usize, Matrix::full(1, 4, 3.0))]; // norm = 6
        let pre = ParamSet::clip_global_norm(&mut grads, 3.0);
        assert!((pre - 6.0).abs() < 1e-5);
        let post: f32 = grads[0].1.norm_sq().sqrt();
        assert!((post - 3.0).abs() < 1e-5);
        // under the cap: untouched
        let mut small = vec![(0usize, Matrix::full(1, 4, 0.1))];
        ParamSet::clip_global_norm(&mut small, 10.0);
        assert_eq!(small[0].1.data(), &[0.1, 0.1, 0.1, 0.1]);
    }

    #[test]
    fn param_set_lookup() {
        let mut p = ParamSet::new();
        let a = p.add("layer0/w", Matrix::zeros(2, 2));
        let b = p.add("layer0/b", Matrix::zeros(1, 2));
        assert_eq!((a, b, p.len()), (0, 1, 2));
        assert_eq!(p.name(a), "layer0/w");
        assert_eq!(p.name(b), "layer0/b");
        assert_eq!(p.get(b).shape(), (1, 2));
    }
}
