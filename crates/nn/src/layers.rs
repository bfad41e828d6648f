//! Neural modules used by MMA and TRMMA: linear/MLP blocks, layer norm,
//! multi-head self-attention, transformer encoder layers (Eq. 4–6 of the
//! paper) and a GRU cell (the TRMMA decoder).

use rand::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::matrix::Matrix;
use crate::param::{Init, Param};

/// A fully connected layer `x · W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Param,
    b: Option<Param>,
}

impl Linear {
    /// Xavier-initialised layer with bias.
    #[must_use]
    pub fn new(d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        Self {
            w: Param::new(d_in, d_out, Init::Xavier, rng),
            b: Some(Param::new(1, d_out, Init::Zeros, rng)),
        }
    }

    /// Xavier-initialised layer without bias.
    #[must_use]
    pub fn new_no_bias(d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        Self { w: Param::new(d_in, d_out, Init::Xavier, rng), b: None }
    }

    /// Wraps a pre-initialised weight matrix (e.g. Node2Vec embeddings for
    /// MMA's `W_C`, Eq. 1) with no bias.
    #[must_use]
    pub fn from_weights(w: Matrix) -> Self {
        Self { w: Param::from_matrix(w), b: None }
    }

    /// The weight matrix parameter.
    #[must_use]
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// Applies the layer to a `rows × d_in` node.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let w = g.param(&self.w);
        let y = g.matmul(x, w);
        match &self.b {
            Some(b) => {
                let bn = g.param(b);
                g.add_row(y, bn)
            }
            None => y,
        }
    }

    /// Binds the layer's weight and bias on `g` (memoised, see
    /// [`Graph::param`]) without applying it, for forward-only loops that
    /// read `g.value(id).data()` directly instead of recording ops.
    pub fn bind(&self, g: &mut Graph) -> (NodeId, Option<NodeId>) {
        (g.param(&self.w), self.b.as_ref().map(|b| g.param(b)))
    }

    /// Embedding lookup: rows of `W` selected by id — equivalent to one-hot
    /// times `W` (Eq. 1) but O(k·d) instead of O(n·d), gathering straight
    /// out of the parameter so the full table never hits the tape.
    pub fn embed(&self, g: &mut Graph, ids: &[usize]) -> NodeId {
        g.embed_param(&self.w, ids)
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        match &self.b {
            Some(b) => vec![self.w.clone(), b.clone()],
            None => vec![self.w.clone()],
        }
    }
}

/// Two-layer perceptron with ReLU: `ReLU(x·W1 + b1)·W2 + b2` (Eq. 2, 5, 7,
/// 15, 18 all instantiate this shape).
#[derive(Debug, Clone)]
pub struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl Mlp {
    /// Builds an MLP `d_in → hidden → d_out`.
    #[must_use]
    pub fn new(d_in: usize, hidden: usize, d_out: usize, rng: &mut StdRng) -> Self {
        Self { l1: Linear::new(d_in, hidden, rng), l2: Linear::new(hidden, d_out, rng) }
    }

    /// Applies the MLP.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let h = self.l1.forward(g, x);
        let h = g.relu(h);
        self.l2.forward(g, h)
    }

    /// The two layers, input side first.
    #[must_use]
    pub fn layers(&self) -> [&Linear; 2] {
        [&self.l1, &self.l2]
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        let mut p = self.l1.params();
        p.extend(self.l2.params());
        p
    }
}

/// Layer normalisation with learnable gain/bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: Param,
    bias: Param,
}

impl LayerNorm {
    /// Identity-initialised layer norm over `dim` features.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            gain: Param::from_matrix(Matrix::full(1, dim, 1.0)),
            bias: Param::from_matrix(Matrix::zeros(1, dim)),
        }
    }

    /// Applies row-wise normalisation then the affine transform.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let normed = g.layer_norm_rows(x);
        let gain = g.param(&self.gain);
        let scaled = g.mul_row(normed, gain);
        let bias = g.param(&self.bias);
        g.add_row(scaled, bias)
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        vec![self.gain.clone(), self.bias.clone()]
    }
}

/// Multi-head scaled dot-product self-attention (Eq. 4).
///
/// Heads are realised as independent `d → d/h` projections; outputs are
/// concatenated and mixed by `W_O`. With sequence lengths ≤ a few hundred
/// this is exactly as fast as the batched formulation and much simpler.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Vec<Linear>,
    wk: Vec<Linear>,
    wv: Vec<Linear>,
    wo: Linear,
    d_head: usize,
}

impl MultiHeadAttention {
    /// Builds `heads`-head attention over `dim` features.
    ///
    /// # Panics
    /// Panics unless `dim % heads == 0`.
    #[must_use]
    pub fn new(dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(dim % heads, 0, "dim must divide into heads");
        let d_head = dim / heads;
        let proj = |rng: &mut StdRng| -> Vec<Linear> {
            (0..heads).map(|_| Linear::new_no_bias(dim, d_head, rng)).collect()
        };
        Self {
            wq: proj(rng),
            wk: proj(rng),
            wv: proj(rng),
            wo: Linear::new_no_bias(dim, dim, rng),
            d_head,
        }
    }

    /// Attention with separate query/key-value sources (`q`: `Lq × d`,
    /// `kv`: `Lkv × d`); self-attention passes the same node twice.
    pub fn forward(&self, g: &mut Graph, q: NodeId, kv: NodeId) -> NodeId {
        let scale = 1.0 / (self.d_head as f64).sqrt();
        let mut heads = Vec::with_capacity(self.wq.len());
        for h in 0..self.wq.len() {
            let qh = self.wq[h].forward(g, q);
            let kh = self.wk[h].forward(g, kv);
            let vh = self.wv[h].forward(g, kv);
            let kt = g.transpose(kh);
            let scores = g.matmul(qh, kt);
            let scaled = g.scale(scores, scale);
            let attn = g.softmax_rows(scaled);
            heads.push(g.matmul(attn, vh));
        }
        let cat = g.concat_cols(&heads);
        self.wo.forward(g, cat)
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        let mut p = Vec::new();
        for l in self.wq.iter().chain(&self.wk).chain(&self.wv) {
            p.extend(l.params());
        }
        p.extend(self.wo.params());
        p
    }
}

/// One transformer encoder layer (Eq. 6): post-norm residual attention and
/// feed-forward sublayers.
#[derive(Debug, Clone)]
pub struct TransformerLayer {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ffn: Mlp,
    ln2: LayerNorm,
}

impl TransformerLayer {
    /// Builds a layer over `dim` features with `heads` heads and an
    /// `ffn_dim` feed-forward hidden size.
    #[must_use]
    pub fn new(dim: usize, heads: usize, ffn_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            attn: MultiHeadAttention::new(dim, heads, rng),
            ln1: LayerNorm::new(dim),
            ffn: Mlp::new(dim, ffn_dim, dim, rng),
            ln2: LayerNorm::new(dim),
        }
    }

    /// Applies the layer to an `L × dim` sequence.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let a = self.attn.forward(g, x, x);
        let res1 = g.add(x, a);
        let x1 = self.ln1.forward(g, res1);
        let f = self.ffn.forward(g, x1);
        let res2 = g.add(x1, f);
        self.ln2.forward(g, res2)
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        let mut p = self.attn.params();
        p.extend(self.ln1.params());
        p.extend(self.ffn.params());
        p.extend(self.ln2.params());
        p
    }
}

/// A stack of [`TransformerLayer`]s (the `Trans(·)` of Eq. 3 and the two
/// encoders of the DualFormer, Eq. 11–12).
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    layers: Vec<TransformerLayer>,
    /// Whether to add sinusoidal positional encodings before the first layer.
    use_pe: bool,
    dim: usize,
}

impl TransformerEncoder {
    /// Builds `n_layers` stacked layers over `dim` features.
    #[must_use]
    pub fn new(
        dim: usize,
        heads: usize,
        ffn_dim: usize,
        n_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            layers: (0..n_layers)
                .map(|_| TransformerLayer::new(dim, heads, ffn_dim, rng))
                .collect(),
            use_pe: true,
            dim,
        }
    }

    /// Disables positional encodings (ablation hook).
    #[must_use]
    pub fn without_positional_encoding(mut self) -> Self {
        self.use_pe = false;
        self
    }

    /// Applies the encoder stack to an `L × dim` sequence.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let mut h = if self.use_pe {
            let len = g.value(x).rows();
            let pe = g.input(positional_encoding(len, self.dim));
            g.add(x, pe)
        } else {
            x
        };
        for layer in &self.layers {
            h = layer.forward(g, h);
        }
        h
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(TransformerLayer::params).collect()
    }
}

/// Sinusoidal positional encodings (`len × dim`).
#[must_use]
pub fn positional_encoding(len: usize, dim: usize) -> Matrix {
    let mut pe = Matrix::zeros(len, dim);
    for pos in 0..len {
        for i in 0..dim {
            let angle = pos as f64 / 10_000f64.powf((2 * (i / 2)) as f64 / dim as f64);
            pe.set(pos, i, if i % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    pe
}

/// A gated recurrent unit cell (Cho et al., 2014) — the sequential decoder
/// of TRMMA (Fig. 4).
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: Linear,
    uz: Linear,
    wr: Linear,
    ur: Linear,
    wh: Linear,
    uh: Linear,
}

impl GruCell {
    /// Builds a cell with input size `d_in` and hidden size `d_h`.
    #[must_use]
    pub fn new(d_in: usize, d_h: usize, rng: &mut StdRng) -> Self {
        Self {
            wz: Linear::new(d_in, d_h, rng),
            uz: Linear::new_no_bias(d_h, d_h, rng),
            wr: Linear::new(d_in, d_h, rng),
            ur: Linear::new_no_bias(d_h, d_h, rng),
            wh: Linear::new(d_in, d_h, rng),
            uh: Linear::new_no_bias(d_h, d_h, rng),
        }
    }

    /// One step: `(x: 1 × d_in, h: 1 × d_h) → h': 1 × d_h`.
    pub fn step(&self, g: &mut Graph, x: NodeId, h: NodeId) -> NodeId {
        // z = σ(x·Wz + h·Uz + bz)
        let zx = self.wz.forward(g, x);
        let zh = self.uz.forward(g, h);
        let z_pre = g.add(zx, zh);
        let z = g.sigmoid(z_pre);
        // r = σ(x·Wr + h·Ur + br)
        let rx = self.wr.forward(g, x);
        let rh = self.ur.forward(g, h);
        let r_pre = g.add(rx, rh);
        let r = g.sigmoid(r_pre);
        // h̃ = tanh(x·Wh + (r ∘ h)·Uh + bh)
        let hx = self.wh.forward(g, x);
        let rh2 = g.mul(r, h);
        let hh = self.uh.forward(g, rh2);
        let h_pre = g.add(hx, hh);
        let h_tilde = g.tanh(h_pre);
        // h' = (1 − z) ∘ h + z ∘ h̃
        let neg_z = g.scale(z, -1.0);
        let one_minus_z = g.add_scalar(neg_z, 1.0);
        let keep = g.mul(one_minus_z, h);
        let update = g.mul(z, h_tilde);
        g.add(keep, update)
    }

    /// The six layers in [`GruCell::step`]'s order: `W_z, U_z, W_r, U_r,
    /// W_h, U_h` (the `W`s take the input and carry the bias, the `U`s take
    /// the hidden state).
    #[must_use]
    pub fn linears(&self) -> [&Linear; 6] {
        [&self.wz, &self.uz, &self.wr, &self.ur, &self.wh, &self.uh]
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        self.linears().iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn linear_shapes() {
        let mut r = rng();
        let lin = Linear::new(4, 3, &mut r);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(5, 4));
        let y = lin.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (5, 3));
        assert_eq!(lin.params().len(), 2);
    }

    #[test]
    fn embed_matches_one_hot_matmul() {
        let mut r = rng();
        let lin = Linear::new_no_bias(4, 3, &mut r);
        let mut g = Graph::new();
        // one-hot for id 2
        let oh = g.input(Matrix::from_vec(1, 4, vec![0.0, 0.0, 1.0, 0.0]));
        let w = g.param(lin.weight());
        let via_matmul = g.matmul(oh, w);
        let via_embed = lin.embed(&mut g, &[2]);
        assert_eq!(g.value(via_matmul).data(), g.value(via_embed).data());
    }

    #[test]
    fn mlp_shapes_and_rectification() {
        let mut r = rng();
        let mlp = Mlp::new(2, 8, 1, &mut r);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(3, 2, vec![1.0, 1.0, -0.5, 2.0, 0.0, 0.0]));
        let y = mlp.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (3, 1));
        assert_eq!(mlp.params().len(), 4);
        // Opposite inputs do not produce opposite outputs (ReLU breaks odd
        // symmetry), unlike a purely linear map.
        let xp = g.input(Matrix::row_vec(vec![0.7, -0.4]));
        let xm = g.input(Matrix::row_vec(vec![-0.7, 0.4]));
        let yp = mlp.forward(&mut g, xp);
        let ym = mlp.forward(&mut g, xm);
        let sum = g.value(yp).get(0, 0) + g.value(ym).get(0, 0);
        assert!(sum.abs() > 1e-9, "ReLU MLP should not be odd-symmetric");
    }

    #[test]
    fn layer_norm_output_standardised_before_affine() {
        let ln = LayerNorm::new(6);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(
            2,
            6,
            vec![1.0, 5.0, 3.0, 2.0, 8.0, 0.0, -1.0, -2.0, 4.0, 4.0, 1.0, 0.5],
        ));
        let y = ln.forward(&mut g, x);
        // Identity affine at init → each row standardised.
        for row in 0..2 {
            let v = g.value(y).row(row);
            let mean: f64 = v.iter().sum::<f64>() / 6.0;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn attention_rows_are_convex_mixes() {
        let mut r = rng();
        let attn = MultiHeadAttention::new(8, 2, &mut r);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(3, 8, (0..24).map(|i| (i as f64) / 10.0).collect()));
        let y = attn.forward(&mut g, x, x);
        assert_eq!(g.value(y).shape(), (3, 8));
    }

    #[test]
    fn cross_attention_shapes() {
        let mut r = rng();
        let attn = MultiHeadAttention::new(8, 2, &mut r);
        let mut g = Graph::new();
        let q = g.input(Matrix::zeros(5, 8));
        let kv = g.input(Matrix::zeros(3, 8));
        let y = attn.forward(&mut g, q, kv);
        assert_eq!(g.value(y).shape(), (5, 8));
    }

    #[test]
    fn transformer_encoder_preserves_shape() {
        let mut r = rng();
        let enc = TransformerEncoder::new(8, 2, 16, 2, &mut r);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(4, 8));
        let y = enc.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (4, 8));
        assert!(!enc.params().is_empty());
    }

    #[test]
    fn positional_encoding_distinguishes_positions() {
        let pe = positional_encoding(10, 8);
        assert_ne!(pe.row(0), pe.row(1));
        // Values bounded in [-1, 1].
        assert!(pe.data().iter().all(|x| x.abs() <= 1.0 + 1e-12));
    }

    #[test]
    fn gru_step_shapes_and_gating() {
        let mut r = rng();
        let gru = GruCell::new(4, 6, &mut r);
        let mut g = Graph::new();
        let x = g.input(Matrix::row_vec(vec![0.1, -0.2, 0.3, 0.0]));
        let h0 = g.input(Matrix::zeros(1, 6));
        let h1 = gru.step(&mut g, x, h0);
        assert_eq!(g.value(h1).shape(), (1, 6));
        // Hidden state stays bounded: it is a convex mix of h (0) and tanh.
        assert!(g.value(h1).data().iter().all(|v| v.abs() < 1.0));
        let h2 = gru.step(&mut g, x, h1);
        assert_ne!(g.value(h1).data(), g.value(h2).data());
    }

    #[test]
    fn gru_param_count() {
        let mut r = rng();
        let gru = GruCell::new(4, 6, &mut r);
        // 3 input Linears with bias (2 params each) + 3 hidden without (1).
        assert_eq!(gru.params().len(), 9);
    }
}
