//! Neural modules used by MMA and TRMMA: linear/MLP blocks, layer norm,
//! multi-head self-attention, transformer encoder layers (Eq. 4–6 of the
//! paper) and a GRU cell (the TRMMA decoder).
//!
//! Every module has a tape `forward` — the definition, which training
//! differentiates — and the ones inference runs also have a forward-only
//! twin on flat row-major `f64` slices (`apply_rows`, `forward_flat`, …)
//! that replays the tape's arithmetic operand for operand: weights are read
//! in place under the [`Param`] read lock, once per layer application, and
//! nothing is recorded or allocated per row. The twins are pinned to the
//! tape bit for bit by `forward_flat_is_bitwise_the_tape_encoder`.

use rand::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::kernels::{matvec_skip_zero, relu_in_place, softmax_in_place, vecmat_skip_zero};
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

    /// [`Linear::forward`] off the tape: `out = x · W (+ b)` over all the
    /// `d_in`-wide rows of `x` under one read lock per parameter. Each row
    /// is the matching row of [`Matrix::matmul_into`] — ascending `k`, zero
    /// input coefficients skipped, a one-column `W` through the same
    /// `matvec` — and the bias is added after the full sum, as `add_row`.
    ///
    /// # Panics
    /// Panics if `x` is not a whole number of `d_in`-wide rows.
    pub fn apply_rows(&self, x: &[f64], out: &mut Vec<f64>) {
        let (d_in, d_out) = self.w.shape();
        out.clear();
        out.resize(x.len() / d_in * d_out, 0.0);
        self.accumulate_rows(x, 0, d_in, out);
        self.add_bias_rows(out);
    }

    /// Continues the sums `out` (`rows × d_out`) holds with the `x_cols`
    /// columns of `x` against weight rows `first_weight_row ..
    /// first_weight_row + x_cols`: the part of [`Linear::forward`]'s product
    /// that a column-concatenated input's slice `x` contributes. Called once
    /// per concatenated part, left to right, onto zeros (or onto a prefix
    /// several rows share), it leaves what the product over the whole
    /// concatenation would have — without the bias, see
    /// [`Linear::add_bias_rows`].
    ///
    /// # Panics
    /// Panics if the shapes disagree or the weight rows are out of range.
    pub fn accumulate_rows(
        &self,
        x: &[f64],
        first_weight_row: usize,
        x_cols: usize,
        out: &mut [f64],
    ) {
        let inner = self.w.read();
        let d_out = inner.value.cols();
        let w = &inner.value.data()[first_weight_row * d_out..(first_weight_row + x_cols) * d_out];
        assert_eq!(x.len() % x_cols, 0, "x is not … × x_cols");
        assert_eq!(x.len() / x_cols * d_out, out.len(), "accumulate_rows shape mismatch");
        if d_out == 1 {
            matvec_skip_zero(x, w, out);
            return;
        }
        for (x_row, out_row) in x.chunks_exact(x_cols).zip(out.chunks_exact_mut(d_out)) {
            vecmat_skip_zero(x_row, w, out_row);
        }
    }

    /// The `add_row` of [`Linear::forward`]: the bias (if the layer has one)
    /// added to every `d_out`-wide row of `out`.
    pub fn add_bias_rows(&self, out: &mut [f64]) {
        if let Some(b) = &self.b {
            let inner = b.read();
            let b = inner.value.data();
            for row in out.chunks_exact_mut(b.len()) {
                for (o, &y) in row.iter_mut().zip(b) {
                    *o += y;
                }
            }
        }
    }

    /// [`Linear::embed`] off the tape: the weight row of the `r`-th id
    /// copied to the front of the `r`-th `stride`-wide row of `out` (the
    /// rest of each row is the caller's — Eq. 2 appends the candidate
    /// features there).
    ///
    /// # Panics
    /// Panics if an id is out of range, `stride < d_out`, or `out` has
    /// fewer rows than there are ids.
    pub fn gather_rows_into(
        &self,
        ids: impl Iterator<Item = usize>,
        stride: usize,
        out: &mut [f64],
    ) {
        let inner = self.w.read();
        let table = &inner.value;
        let mut rows = out.chunks_exact_mut(stride);
        for id in ids {
            let row = rows.next().expect("gather destination too short");
            row[..table.cols()].copy_from_slice(table.row(id));
        }
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

    /// [`Mlp::forward`] off the tape over all rows of `x`; `hidden` is the
    /// caller's buffer for the first layer's output.
    pub fn apply_rows(&self, x: &[f64], hidden: &mut Vec<f64>, out: &mut Vec<f64>) {
        self.l1.apply_rows(x, hidden);
        relu_in_place(hidden);
        self.l2.apply_rows(hidden, out);
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

    /// [`LayerNorm::forward`] off the tape, in place over every row of `x`:
    /// `Graph::layer_norm_rows`' expressions (iterator sums included), then
    /// `* gain`, then `+ bias`, each its own rounding.
    pub(crate) fn apply_rows(&self, x: &mut [f64]) {
        let gain = self.gain.read();
        let bias = self.bias.read();
        let (gain, bias) = (gain.value.data(), bias.value.data());
        let c = gain.len() as f64;
        for row in x.chunks_exact_mut(gain.len()) {
            let mean = row.iter().sum::<f64>() / c;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / c;
            let denom = (var + 1e-5).sqrt();
            for ((x, &g), &b) in row.iter_mut().zip(gain).zip(bias) {
                *x = (*x - mean) / denom;
                *x *= g;
                *x += b;
            }
        }
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

    /// Self-attention of [`MultiHeadAttention::forward`] off the tape over
    /// the `len × dim` sequence `x`, into `ws.attn`. Per head: the three
    /// projections, `q_i · k_j` against the transposed keys (skip on
    /// `q == 0.0`), `scale * s` as its own rounding, the row softmax, and
    /// `attn · V` (skip on a weight that underflowed to `0.0`) written into
    /// the head's columns of the concatenation; then `W_O`.
    fn self_attention_flat(&self, x: &[f64], len: usize, ws: &mut EncoderScratch) {
        let d_head = self.d_head;
        let dim = d_head * self.wq.len();
        let scale = 1.0 / (d_head as f64).sqrt();
        ws.cat.clear();
        ws.cat.resize(len * dim, 0.0);
        ws.kt.clear();
        ws.kt.resize(d_head * len, 0.0);
        ws.scores.clear();
        ws.scores.resize(len, 0.0);
        for h in 0..self.wq.len() {
            self.wq[h].apply_rows(x, &mut ws.q);
            self.wk[h].apply_rows(x, &mut ws.k);
            self.wv[h].apply_rows(x, &mut ws.v);
            for (j, k_row) in ws.k.chunks_exact(d_head).enumerate() {
                for (c, &k) in k_row.iter().enumerate() {
                    ws.kt[c * len + j] = k;
                }
            }
            let head_cols = h * d_head..(h + 1) * d_head;
            for (q_row, cat_row) in ws.q.chunks_exact(d_head).zip(ws.cat.chunks_exact_mut(dim)) {
                ws.scores.fill(0.0);
                vecmat_skip_zero(q_row, &ws.kt, &mut ws.scores);
                for s in &mut ws.scores {
                    *s *= scale;
                }
                softmax_in_place(&mut ws.scores);
                vecmat_skip_zero(&ws.scores, &ws.v, &mut cat_row[head_cols.clone()]);
            }
        }
        self.wo.apply_rows(&ws.cat, &mut ws.attn);
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

    /// [`TransformerLayer::forward`] off the tape, in place on `ws.h`.
    fn forward_flat(&self, len: usize, ws: &mut EncoderScratch) {
        let mut h = std::mem::take(&mut ws.h);
        self.attn.self_attention_flat(&h, len, ws);
        add_in_place(&mut h, &ws.attn);
        self.ln1.apply_rows(&mut h);
        self.ffn.apply_rows(&h, &mut ws.hidden, &mut ws.attn);
        add_in_place(&mut h, &ws.attn);
        self.ln2.apply_rows(&mut h);
        ws.h = h;
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

    /// [`TransformerEncoder::forward`] off the tape: encodes the
    /// `len × dim` sequence `x` through `ws` and returns the `len × dim`
    /// output, which lives in `ws` until its next use. Bit for bit the
    /// tape's values; `ws` may come from any earlier call, of any length or
    /// width.
    ///
    /// # Panics
    /// Panics if `x` is not a whole number of `dim`-wide rows.
    pub fn forward_flat<'w>(&self, x: &[f64], ws: &'w mut EncoderScratch) -> &'w [f64] {
        assert_eq!(x.len() % self.dim, 0, "x is not … × dim");
        let len = x.len() / self.dim;
        ws.h.clear();
        ws.h.extend_from_slice(x);
        if self.use_pe {
            ws.extend_positional_rows(len, self.dim);
            add_in_place(&mut ws.h, &ws.pe[..x.len()]);
        }
        for layer in &self.layers {
            layer.forward_flat(len, ws);
        }
        &ws.h
    }

    /// The learnable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(TransformerLayer::params).collect()
    }
}

/// `Graph::add` in place: `x[i] += y[i]`.
fn add_in_place(x: &mut [f64], y: &[f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (x, &y) in x.iter_mut().zip(y) {
        *x += y;
    }
}

/// The workspace of [`TransformerEncoder::forward_flat`]: every
/// intermediate of a layer as a reused flat buffer, plus the positional
/// rows computed so far. One per worker serves any number of sequences and
/// encoders.
#[derive(Debug, Default)]
pub struct EncoderScratch {
    /// Rows `0 .. pe.len() / pe_dim` of [`positional_encoding`]`(_, pe_dim)`
    /// — row `pos` depends on `(pos, dim)` only, so a longer sequence
    /// extends them and a different `dim` rebuilds them.
    pe: Vec<f64>,
    pe_dim: usize,
    /// The sequence being encoded, `len × dim`.
    h: Vec<f64>,
    /// One head's projections (`len × d_head`) and its transposed keys.
    q: Vec<f64>,
    k: Vec<f64>,
    v: Vec<f64>,
    kt: Vec<f64>,
    /// One query's scores, then (in place) its attention weights.
    scores: Vec<f64>,
    /// The concatenated heads, `len × dim`.
    cat: Vec<f64>,
    /// A sub-layer's output before the residual add, `len × dim`.
    attn: Vec<f64>,
    /// The feed-forward hidden layer, `len × ffn`.
    hidden: Vec<f64>,
}

impl EncoderScratch {
    /// Makes rows `0 .. len` of the `dim`-wide positional encoding
    /// available in `self.pe`, with [`positional_encoding`]'s expression.
    fn extend_positional_rows(&mut self, len: usize, dim: usize) {
        if self.pe_dim != dim {
            self.pe.clear();
            self.pe_dim = dim;
        }
        for pos in self.pe.len() / dim..len {
            for i in 0..dim {
                let angle = pos as f64 / 10_000f64.powf((2 * (i / 2)) as f64 / dim as f64);
                self.pe.push(if i % 2 == 0 { angle.sin() } else { angle.cos() });
            }
        }
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

    /// Edits a parameter's value in place.
    fn edit(p: &Param, f: impl FnOnce(&mut Matrix)) {
        let mut m = p.value();
        f(&mut m);
        p.set_value(m);
    }

    /// Overwrites `enc`'s weights so that every zero-coefficient skip
    /// `matmul_into` can take on the tape is taken somewhere, and a skip the
    /// flat path missed would show. With finite weights it could not — a
    /// sum that starts at `+0.0` never reaches `-0.0`, so `+ 0.0 · b`
    /// changes no bit — hence every weight row or column that only ever
    /// meets an exact-zero coefficient is set to `+inf`: one missed skip and
    /// the output is NaN.
    ///
    /// * all weights: exact `0.0` and `-0.0` sprinkled in, whole zero rows;
    /// * layer norms: gain and bias zero in every column `c % 4 == 1`, so
    ///   those columns of each sub-layer's output are exactly zero and the
    ///   weight rows they feed (`ffn` layer 1, the next layer's `W_Q`,
    ///   `W_K`, `W_V`; the first layer's too when `bare_input` says no
    ///   positional rows are added to `salted_input`'s zero columns) are
    ///   `+inf`;
    /// * `ffn`: every hidden unit `j % 3 == 2` has zero weights and bias,
    ///   so ReLU leaves exact zeros over `+inf` rows of layer 2;
    /// * attention: the last column of every `W_Q` is zero and of every
    ///   `W_K` is `+inf` (the `q == 0.0` skip);
    /// * `bare_input` also (first layer only; it needs input columns 0, 2, 3
    ///   as `salted_input` lays them out): every query scores the last
    ///   position ≈ −5·10⁵ below the others, so its attention weight
    ///   underflows to exact `0.0` in every row, over a value row of `+inf`.
    fn salt_encoder(enc: &TransformerEncoder, bare_input: bool) {
        for p in enc.params() {
            edit(&p, |m| {
                let (rows, cols) = m.shape();
                for r in 0..rows {
                    for c in 0..cols {
                        match (rows > 1 && r % 5 == 4, (r * cols + c) % 7) {
                            (true, _) | (false, 0) => m.set(r, c, 0.0),
                            (false, 3) => m.set(r, c, -0.0),
                            _ => {}
                        }
                    }
                }
            });
        }
        let poison_rows = |lin: &Linear| {
            edit(&lin.w, |m| {
                for r in (0..m.rows()).filter(|r| r % 4 == 1) {
                    m.row_mut(r).fill(f64::INFINITY);
                }
            });
        };
        let set_col = |lin: &Linear, c: usize, v: f64| {
            edit(&lin.w, |m| (0..m.rows()).for_each(|r| m.set(r, c, v)));
        };
        for (li, layer) in enc.layers.iter().enumerate() {
            for ln in [&layer.ln1, &layer.ln2] {
                for (p, base) in [(&ln.gain, 1.0), (&ln.bias, 0.0)] {
                    edit(p, |m| {
                        for c in 0..m.cols() {
                            let v = base + 0.1 * ((c + li) as f64).sin();
                            m.set(0, c, if c % 4 == 1 { 0.0 } else { v });
                        }
                    });
                }
            }
            let [l1, l2] = layer.ffn.layers();
            for j in (0..l1.w.shape().1).filter(|j| j % 3 == 2) {
                set_col(l1, j, 0.0);
            }
            edit(l1.b.as_ref().unwrap(), |m| {
                for j in 0..m.cols() {
                    m.set(0, j, if j % 3 == 2 { 0.0 } else { 0.2 * (j as f64).cos() });
                }
            });
            poison_rows(l1);
            edit(&l2.w, |m| {
                for r in (0..m.rows()).filter(|r| r % 3 == 2) {
                    m.row_mut(r).fill(f64::INFINITY);
                }
            });
            let attn = &layer.attn;
            let last = attn.d_head - 1;
            for h in 0..attn.wq.len() {
                set_col(&attn.wq[h], last, 0.0);
                set_col(&attn.wk[h], last, f64::INFINITY);
                if li > 0 || bare_input {
                    for lin in [&attn.wq[h], &attn.wk[h], &attn.wv[h]] {
                        poison_rows(lin);
                    }
                }
                if bare_input && li == 0 {
                    // Columns 2 and 3 of the input reach the scores and the
                    // values through the two designated entries only.
                    for lin in [&attn.wq[h], &attn.wk[h]] {
                        set_col(lin, 0, 0.0);
                        edit(&lin.w, |m| {
                            m.row_mut(2).fill(0.0);
                            m.row_mut(3).fill(0.0);
                        });
                    }
                    edit(&attn.wq[h].w, |m| m.set(0, 0, 50.0 * (attn.d_head as f64).sqrt()));
                    edit(&attn.wk[h].w, |m| m.set(2, 0, 1.0));
                    edit(&attn.wv[h].w, |m| m.row_mut(3).fill(f64::INFINITY));
                }
            }
        }
    }

    /// A `len × dim` input with exact zeros of both signs, the columns
    /// `c % 4 == 1` all zero, and — the layout `salt_encoder`'s `bare_input`
    /// expects — column 0 constant `1.0`, columns 2 and 3 zero except in
    /// the last row (`-10⁴` and `1.0`) when there is more than one row. Row
    /// 1 is zero outside column 0.
    fn salted_input(len: usize, dim: usize, salt: usize) -> Vec<f64> {
        let mut x = vec![0.0; len * dim];
        for (pos, row) in x.chunks_exact_mut(dim).enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                let i = pos * dim + c + salt;
                *v = match (c, i % 6) {
                    (0, _) => 1.0,
                    (2 | 3, _) => 0.0,
                    (c, _) if c % 4 == 1 || pos == 1 => 0.0,
                    (_, 0) => -0.0,
                    (_, 4) => 0.0,
                    _ => ((i * 37 % 101) as f64 - 50.0) * 0.013,
                };
            }
            if pos > 0 && pos == len - 1 {
                row[2] = -1e4;
                row[3] = 1.0;
            }
        }
        x
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_flat_is_bitwise_the_tape_encoder() {
        // One workspace for the whole sweep: every call finds it dirty from
        // a different length, and from a different width whenever `dim`
        // changes — the positional rows must then be rebuilt, not reused.
        let mut ws = EncoderScratch::default();
        let mut compared = 0usize;
        for (di, dim) in [8usize, 24, 12, 20].into_iter().enumerate() {
            for heads in [1usize, 2, 4] {
                for ffn in [5usize, 19, 48] {
                    for n_layers in 1..=3 {
                        for use_pe in [true, false] {
                            let mut r = StdRng::seed_from_u64((dim * 31 + heads * 7 + ffn) as u64);
                            let mut enc =
                                TransformerEncoder::new(dim, heads, ffn, n_layers, &mut r);
                            if !use_pe {
                                enc = enc.without_positional_encoding();
                            }
                            // Without positional rows the input's zero
                            // columns and designated columns survive into
                            // the first layer.
                            salt_encoder(&enc, !use_pe);
                            for len in [7usize, 1, 40, 2] {
                                let x = salted_input(len, dim, di + heads + ffn + n_layers);
                                let mut g = Graph::new();
                                let xn = g.input(Matrix::from_vec(len, dim, x.clone()));
                                let yn = enc.forward(&mut g, xn);
                                let want = g.value(yn).data();
                                let what = format!(
                                    "dim {dim} heads {heads} ffn {ffn} layers {n_layers} \
                                     pe {use_pe} len {len}"
                                );
                                assert!(
                                    want.iter().all(|v| v.is_finite()),
                                    "{what}: a poisoned row was not skipped on the tape"
                                );
                                let got = enc.forward_flat(&x, &mut ws);
                                assert_eq!(bits(got), bits(want), "{what}");
                                compared += want.len();
                            }
                        }
                    }
                }
            }
        }
        assert!(compared > 100_000, "the sweep compared only {compared} values");
    }

    #[test]
    fn encoder_salting_reaches_the_operands_it_is_meant_to() {
        let mut r = rng();
        let enc = TransformerEncoder::new(12, 2, 19, 2, &mut r).without_positional_encoding();
        salt_encoder(&enc, true);
        let (len, dim) = (7, 12);
        let x = salted_input(len, dim, 3);
        let mut g = Graph::new();
        let xn = g.input(Matrix::from_vec(len, dim, x));
        let layer = &enc.layers[0];
        // Steep scores: the last key's weight is exactly zero in every row.
        let q = layer.attn.wq[0].forward(&mut g, xn);
        let k = layer.attn.wk[0].forward(&mut g, xn);
        let kt = g.transpose(k);
        let s = g.matmul(q, kt);
        let s = g.scale(s, 1.0 / (layer.attn.d_head as f64).sqrt());
        let a = g.softmax_rows(s);
        assert!((0..len).all(|i| g.value(a).get(i, len - 1) == 0.0), "no underflow");
        let v = layer.attn.wv[0].forward(&mut g, xn);
        assert!(g.value(v).row(len - 1).iter().all(|v| *v == f64::INFINITY), "value row finite");
        assert!((0..len).all(|i| g.value(q).get(i, layer.attn.d_head - 1) == 0.0), "q not zero");
        assert!(!g.value(k).get(0, layer.attn.d_head - 1).is_finite(), "k column finite");
        // Zero layer-norm columns and zero ReLU outputs.
        let y = layer.forward(&mut g, xn);
        assert!((0..len).all(|i| g.value(y).get(i, 1) == 0.0 && g.value(y).get(i, 5) == 0.0));
        let [l1, _] = layer.ffn.layers();
        let hid = l1.forward(&mut g, y);
        let hid = g.relu(hid);
        assert!((0..len).all(|i| g.value(hid).get(i, 2) == 0.0));
    }

    #[test]
    fn flat_linear_carries_a_concatenation_and_gathers_strided() {
        let mut r = rng();
        let lin = Linear::new(5, 7, &mut r);
        let x: Vec<f64> =
            (0..15).map(|i| if i % 4 == 0 { 0.0 } else { i as f64 * 0.3 - 2.0 }).collect();
        let mut g = Graph::new();
        let xn = g.input(Matrix::from_vec(3, 5, x.clone()));
        let yn = lin.forward(&mut g, xn);
        let mut whole = Vec::new();
        lin.apply_rows(&x, &mut whole);
        assert_eq!(bits(&whole), bits(g.value(yn).data()));
        // The same product as `[x[.., ..2] | x[.., 2..]]`, part by part.
        let (left, right): (Vec<f64>, Vec<f64>) = (
            x.chunks_exact(5).flat_map(|r| r[..2].to_vec()).collect(),
            x.chunks_exact(5).flat_map(|r| r[2..].to_vec()).collect(),
        );
        let mut split = vec![0.0; 21];
        lin.accumulate_rows(&left, 0, 2, &mut split);
        lin.accumulate_rows(&right, 2, 3, &mut split);
        lin.add_bias_rows(&mut split);
        assert_eq!(bits(&split), bits(&whole));
        // One output column takes `matmul_into`'s matvec branch.
        let col = Linear::new(5, 1, &mut r);
        let yn = col.forward(&mut g, xn);
        col.apply_rows(&x, &mut whole);
        assert_eq!(bits(&whole), bits(g.value(yn).data()));

        let table = Linear::new_no_bias(4, 3, &mut r);
        let mut out = vec![9.0; 10];
        table.gather_rows_into([2usize, 0].into_iter(), 5, &mut out);
        let w = table.weight().value();
        assert_eq!(out[..3], *w.row(2));
        assert_eq!(out[5..8], *w.row(0));
        assert_eq!([out[3], out[4], out[8], out[9]], [9.0; 4]);
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
