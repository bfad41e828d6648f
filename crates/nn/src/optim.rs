//! The optimiser [`crate::train::fit`] steps.

use crate::param::Param;

/// Global gradient-norm bound applied before every step.
const CLIP_NORM: f64 = 5.0;

/// Adam (Kingma & Ba) with bias correction — the de-facto optimiser for the
/// paper's transformer models (learning rate 1e-3 in §VI-A) — clipping the
/// global gradient norm to [`CLIP_NORM`].
#[derive(Debug)]
pub(crate) struct Adam {
    params: Vec<Param>,
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimiser over `params`.
    pub(crate) fn new(params: Vec<Param>, lr: f64) -> Self {
        Self { params, lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0 }
    }

    /// Clears accumulated gradients on every managed parameter.
    pub(crate) fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Applies one update step from the accumulated gradients.
    pub(crate) fn step(&mut self) {
        self.t += 1;
        let scale = self.clip_scale();
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in &self.params {
            let mut inner = p.write();
            let inner = &mut *inner;
            for i in 0..inner.value.len() {
                let g = inner.grad.data()[i] * scale;
                let m = self.beta1 * inner.m.data()[i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * inner.v.data()[i] + (1.0 - self.beta2) * g * g;
                inner.m.data_mut()[i] = m;
                inner.v.data_mut()[i] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                inner.value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn clip_scale(&self) -> f64 {
        let total_sq: f64 = self
            .params
            .iter()
            .map(|p| {
                let g = p.read();
                g.grad.data().iter().map(|x| x * x).sum::<f64>()
            })
            .sum();
        let norm = total_sq.sqrt();
        if norm > CLIP_NORM {
            CLIP_NORM / norm
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::matrix::Matrix;

    /// Minimise (w - 3)².
    fn quadratic_loss(p: &Param) -> f64 {
        let mut g = Graph::new();
        let w = g.param(p);
        let shifted = g.add_scalar(w, -3.0);
        let sq = g.mul(shifted, shifted);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.value(loss).get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Param::from_matrix(Matrix::row_vec(vec![0.0]));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        for _ in 0..300 {
            opt.zero_grad();
            quadratic_loss(&p);
            opt.step();
        }
        assert!((p.value().get(0, 0) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        // Gradient norm 5e9, far beyond the bound: it is scaled to norm 5.
        let p = Param::from_matrix(Matrix::row_vec(vec![0.0, 0.0]));
        p.accumulate_grad(&Matrix::row_vec(vec![3e9, 4e9]));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        assert_eq!(opt.clip_scale(), CLIP_NORM / 5e9);
        opt.step();
        // One Adam step with lr 0.1 moves each weight by at most ~lr.
        assert!(p.value().data().iter().all(|w| w.abs() <= 0.11));
        // Inside the bound the gradient passes unscaled.
        p.zero_grad();
        p.accumulate_grad(&Matrix::row_vec(vec![3.0, 4.0]));
        assert_eq!(opt.clip_scale(), 1.0);
    }

    #[test]
    fn zero_grad_clears_all() {
        let p = Param::from_matrix(Matrix::row_vec(vec![0.0, 0.0]));
        p.accumulate_grad(&Matrix::row_vec(vec![1.0, 2.0]));
        let opt = Adam::new(vec![p.clone()], 0.1);
        opt.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }
}
