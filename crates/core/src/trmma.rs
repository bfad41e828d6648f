//! TRMMA: sparse trajectory recovery restricted to the matched route (§V).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trmma_geom::BBox;
use trmma_nn::kernels::{
    add_rows_in_order, matvec_skip_zero, relu_in_place, softmax_in_place, vecmat_skip_zero,
};
use trmma_nn::EncoderScratch;
use trmma_nn::{
    Graph, GruCell, Linear, Matrix, Mlp, NodeId, Param, TrainReport, TransformerEncoder,
};
use trmma_roadnet::{RoadNetwork, SegmentId};
use trmma_traj::types::{MatchedPoint, MatchedTrajectory, Route, Trajectory};
use trmma_traj::{epsilon_ticks, Sample, SnapshotError};

/// Hyper-parameters of TRMMA (§VI-A; defaults follow the paper with widths
/// scaled to the synthetic data).
#[derive(Debug, Clone)]
pub struct TrmmaConfig {
    /// Transformer/GRU hidden width `dh` (paper: 64).
    pub dh: usize,
    /// Segment-embedding width used in `T_0` and the decoder input.
    pub d_emb: usize,
    /// DualFormer depth (paper: 4) and heads (paper: 4).
    pub n_layers: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Transformer FFN width (paper: 512).
    pub ffn: usize,
    /// Ratio-loss weight λ (Eq. 21).
    pub lambda: f64,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f64,
    /// Trajectories per optimiser step (gradient accumulation; the paper
    /// trains with batch 512).
    pub batch_size: usize,
    /// Init/shuffle seed.
    pub seed: u64,
    /// Ablation `TRMMA-DF`: when false, use `R` directly as `H` (no
    /// trajectory encoder / cross-attention fusion).
    pub use_dualformer: bool,
}

impl Default for TrmmaConfig {
    fn default() -> Self {
        Self {
            dh: 64,
            d_emb: 32,
            n_layers: 2,
            n_heads: 4,
            ffn: 128,
            lambda: 2.0,
            lr: 1e-3,
            batch_size: 8,
            seed: 23,
            use_dualformer: true,
        }
    }
}

impl TrmmaConfig {
    /// A small configuration for tests and quick examples.
    #[must_use]
    pub fn small() -> Self {
        Self { dh: 24, d_emb: 12, n_layers: 1, n_heads: 2, ffn: 48, ..Self::default() }
    }
}

/// The TRMMA recovery model (Algorithm 2). See crate docs.
pub struct Trmma {
    net: Arc<RoadNetwork>,
    bbox: BBox,
    cfg: TrmmaConfig,
    /// Segment embedding for `T_0` rows and decoder inputs.
    seg_emb: Linear,
    /// `W_6, b_6` of Eq. 11.
    t_fc: Linear,
    /// `Trans_T` of Eq. 11.
    trans_t: TransformerEncoder,
    /// `W_7` of Eq. 12 (embedding table over segments).
    r_table: Linear,
    /// `b_7` of Eq. 12.
    r_bias: Param,
    /// `Trans_R` of Eq. 12.
    trans_r: TransformerEncoder,
    /// The decoder GRU (Fig. 4).
    gru: GruCell,
    /// `W_8, b_8, W_9, b_9` of Eq. 15.
    cls_mlp: Mlp,
    /// `W_10, b_10, W_11, b_11` of Eq. 18.
    ratio_mlp: Mlp,
    params: Vec<Param>,
}

impl Trmma {
    /// Builds an untrained TRMMA over `net`.
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, cfg: TrmmaConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = net.num_segments();
        let seg_emb = Linear::new_no_bias(n, cfg.d_emb, &mut rng);
        let t_fc = Linear::new(4 + cfg.d_emb, cfg.dh, &mut rng);
        let trans_t = TransformerEncoder::new(cfg.dh, cfg.n_heads, cfg.ffn, cfg.n_layers, &mut rng);
        let r_table = Linear::new_no_bias(n, cfg.dh, &mut rng);
        let r_bias = Param::new(1, cfg.dh, trmma_nn::Init::Zeros, &mut rng);
        let trans_r = TransformerEncoder::new(cfg.dh, cfg.n_heads, cfg.ffn, cfg.n_layers, &mut rng);
        // Decoder input: [H-row of the previous segment, prev ratio, gap
        // fraction, gap length]. Using the encoded route row (which carries
        // the route-positional encoding) as the segment representation lets
        // the order constraint of Eq. 17 generalise across routes; the two
        // gap features are the quantities Algorithm 2 computes at line 9
        // (`n_i` and the tick index `j`). Documented adaptation for
        // laptop-scale corpora, DESIGN.md §1.
        let gru = GruCell::new(cfg.dh + 3, cfg.dh, &mut rng);
        // The classifier additionally receives three metre-scale route
        // features per row (offset of the row relative to the constant
        // -speed anchor, to the previous point, and to the gap end) —
        // numeric forms of the route-positional information Eq. 17's order
        // constraint is built on. They anchor the decoder at the linear
        // -interpolation solution so training only has to learn the traffic
        // *corrections* (dwells, per-class speeds); without them the model
        // would need orders of magnitude more data (DESIGN.md §1).
        let cls_mlp = Mlp::new(2 * cfg.dh + 3, cfg.dh, 1, &mut rng);
        let ratio_mlp = Mlp::new(2 * cfg.dh + 3, cfg.dh, 1, &mut rng);
        let mut params = Vec::new();
        params.extend(seg_emb.params());
        params.extend(t_fc.params());
        params.extend(trans_t.params());
        params.extend(r_table.params());
        params.push(r_bias.clone());
        params.extend(trans_r.params());
        params.extend(gru.params());
        params.extend(cls_mlp.params());
        params.extend(ratio_mlp.params());
        let bbox = net.bbox();
        Self {
            net,
            bbox,
            cfg,
            seg_emb,
            t_fc,
            trans_t,
            r_table,
            r_bias,
            trans_r,
            gru,
            cls_mlp,
            ratio_mlp,
            params,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TrmmaConfig {
        &self.cfg
    }

    /// Total scalar weights.
    #[must_use]
    pub fn num_weights(&self) -> usize {
        trmma_nn::param::total_weights(&self.params)
    }

    /// The road network the model recovers on.
    #[must_use]
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// DualFormer encoding (Eq. 11–14): returns `H` (`ℓ_R × dh`).
    fn encode(
        &self,
        g: &mut Graph,
        traj: &Trajectory,
        matched: &[MatchedPoint],
        route: &[SegmentId],
    ) -> NodeId {
        // Route side (Eq. 12).
        let r_ids: Vec<usize> = route.iter().map(|s| s.idx()).collect();
        let r_emb = self.r_table.embed(g, &r_ids);
        let r_bias = g.param(&self.r_bias);
        let r1 = g.add_row(r_emb, r_bias);
        let r = self.trans_r.forward(g, r1);
        if !self.cfg.use_dualformer {
            return r;
        }

        // Trajectory side (Eq. 11): [x, y, t, ratio] ++ emb(segment).
        let w = (self.bbox.max.x - self.bbox.min.x).max(1.0);
        let hgt = (self.bbox.max.y - self.bbox.min.y).max(1.0);
        let t0 = traj.points.first().map_or(0.0, |p| p.t);
        let dur = traj.duration_s().max(1.0);
        let rows: Vec<Vec<f64>> = traj
            .points
            .iter()
            .zip(matched)
            .map(|(p, a)| {
                vec![
                    (p.pos.x - self.bbox.min.x) / w,
                    (p.pos.y - self.bbox.min.y) / hgt,
                    (p.t - t0) / dur,
                    a.ratio,
                ]
            })
            .collect();
        let feats = g.input(Matrix::from_rows(&rows));
        let t_ids: Vec<usize> = matched.iter().map(|a| a.seg.idx()).collect();
        let t_emb = self.seg_emb.embed(g, &t_ids);
        let t0_mat = g.concat_cols(&[feats, t_emb]);
        let t1 = self.t_fc.forward(g, t0_mat);
        let t = self.trans_t.forward(g, t1);

        // Cross-attention fusion (Eq. 13–14).
        let t_t = g.transpose(t);
        let scores = g.matmul(r, t_t); // ℓ_R × ℓ
        let beta = g.softmax_rows(scores);
        let mix = g.matmul(beta, t);
        g.add(r, mix)
    }

    /// [`Trmma::encode`] off the tape: `H` as a flat `ℓ_R × dh` buffer,
    /// every bit the tape's. Weights are read in place, one read lock per
    /// layer application; the buffers (the encoder workspace included, so
    /// its positional rows too) are made here, per call.
    fn encode_flat(
        &self,
        traj: &Trajectory,
        matched: &[MatchedPoint],
        route: &[SegmentId],
    ) -> Vec<f64> {
        let TrmmaConfig { dh, d_emb, .. } = self.cfg;
        let mut ws = EncoderScratch::default();
        // Route side (Eq. 12).
        let mut r1 = vec![0.0; route.len() * dh];
        self.r_table.gather_rows_into(route.iter().map(|s| s.idx()), dh, &mut r1);
        let r_bias = self.r_bias.value();
        for row in r1.chunks_exact_mut(dh) {
            for (x, &b) in row.iter_mut().zip(r_bias.data()) {
                *x += b;
            }
        }
        let mut r = self.trans_r.forward_flat(&r1, &mut ws).to_vec();
        if !self.cfg.use_dualformer {
            return r;
        }

        // Trajectory side (Eq. 11): [x, y, t, ratio] ++ emb(segment). The
        // concatenation is never built: `t_fc`'s sums are carried from the
        // four features into the embedding part.
        let w = (self.bbox.max.x - self.bbox.min.x).max(1.0);
        let hgt = (self.bbox.max.y - self.bbox.min.y).max(1.0);
        let t0 = traj.points.first().map_or(0.0, |p| p.t);
        let dur = traj.duration_s().max(1.0);
        let len = matched.len();
        let mut feats = Vec::with_capacity(len * 4);
        for (p, a) in traj.points.iter().zip(matched) {
            feats.extend_from_slice(&[
                (p.pos.x - self.bbox.min.x) / w,
                (p.pos.y - self.bbox.min.y) / hgt,
                (p.t - t0) / dur,
                a.ratio,
            ]);
        }
        let mut t_emb = vec![0.0; len * d_emb];
        self.seg_emb.gather_rows_into(matched.iter().map(|a| a.seg.idx()), d_emb, &mut t_emb);
        let mut t1 = vec![0.0; len * dh];
        self.t_fc.accumulate_rows(&feats, 0, 4, &mut t1);
        self.t_fc.accumulate_rows(&t_emb, 4, d_emb, &mut t1);
        self.t_fc.add_bias_rows(&mut t1);
        let t = self.trans_t.forward_flat(&t1, &mut ws);

        // Cross-attention fusion (Eq. 13–14): `β = softmax(R · Tᵀ)` with no
        // scale, `H = R + β · T`.
        let mut t_t = vec![0.0; t.len()];
        for (j, t_row) in t.chunks_exact(dh).enumerate() {
            for (c, &v) in t_row.iter().enumerate() {
                t_t[c * len + j] = v;
            }
        }
        let mut beta = vec![0.0; len];
        let mut mix = vec![0.0; dh];
        for r_row in r.chunks_exact_mut(dh) {
            beta.fill(0.0);
            vecmat_skip_zero(r_row, &t_t, &mut beta);
            softmax_in_place(&mut beta);
            mix.fill(0.0);
            vecmat_skip_zero(&beta, t, &mut mix);
            for (x, &m) in r_row.iter_mut().zip(&mix) {
                *x += m;
            }
        }
        r
    }

    /// One decoder advance (Fig. 4): previous point plus gap position →
    /// new hidden state. `prev_pos` is the route position of the previous
    /// point's segment; `frac` is `j / (n_i + 1)` within the current gap,
    /// `gap_norm` a bounded encoding of the gap length `n_i`.
    #[allow(clippy::too_many_arguments)]
    fn gru_step(
        &self,
        g: &mut Graph,
        big_h: NodeId,
        h: NodeId,
        prev_pos: usize,
        prev_ratio: f64,
        frac: f64,
        gap_norm: f64,
    ) -> NodeId {
        let seg_row = g.slice_rows(big_h, prev_pos, 1);
        let extras = g.input(Matrix::row_vec(vec![prev_ratio, frac, gap_norm]));
        let x = g.concat_cols(&[seg_row, extras]);
        self.gru.step(g, x, h)
    }

    /// Classification scores `w_{·,j}` over all route segments (Eq. 15) for
    /// hidden state `h` — an `ℓ_R × 1` column. `prev_off` / `anchor_off` /
    /// `end_off` are route offsets in metres (see the constructor note on
    /// the metre-scale features).
    #[allow(clippy::too_many_arguments)]
    fn cls_scores(
        &self,
        g: &mut Graph,
        big_h: NodeId,
        h: NodeId,
        geom: &RouteGeom,
        prev_off: f64,
        anchor_off: f64,
        end_off: f64,
    ) -> NodeId {
        let route_len = geom.lens.len();
        let h_rep = g.gather_rows(h, &vec![0; route_len]);
        const S: f64 = 200.0;
        let mut flat = Vec::with_capacity(route_len * 3);
        for k in 0..route_len {
            let mid = geom.prefix[k] + geom.lens[k] / 2.0;
            flat.push(((mid - anchor_off) / S).clamp(-4.0, 4.0));
            flat.push(((geom.prefix[k] - prev_off) / S).clamp(-4.0, 4.0));
            flat.push(((geom.prefix[k] + geom.lens[k] - end_off) / S).clamp(-4.0, 4.0));
        }
        let feats = g.input(Matrix::from_vec(route_len, 3, flat));
        let cat = g.concat_cols(&[big_h, h_rep, feats]);
        self.cls_mlp.forward(g, cat)
    }

    /// Position-ratio head (Eq. 18) for hidden state `h`, given the scores
    /// column `w` from [`Trmma::cls_scores`] and the same metre-scale gap
    /// description.
    #[allow(clippy::too_many_arguments)]
    fn ratio_pred(
        &self,
        g: &mut Graph,
        big_h: NodeId,
        h: NodeId,
        w: NodeId,
        frac: f64,
        anchor_minus_prev: f64,
        gap_m: f64,
    ) -> NodeId {
        let w_row = g.transpose(w);
        let psi = g.softmax_rows(w_row); // 1 × ℓ_R
        let ctx = g.matmul(psi, big_h); // 1 × dh
        let scalars = g.input(Matrix::row_vec(vec![
            frac,
            (anchor_minus_prev / 200.0).clamp(-4.0, 4.0),
            (gap_m / 1000.0).min(5.0),
        ]));
        let cat = g.concat_cols(&[h, ctx, scalars]);
        let pre = self.ratio_mlp.forward(g, cat);
        g.sigmoid(pre)
    }

    /// Mean multitask loss on held-out samples, forward only (gradients
    /// gathered so far are left alone); NaN when no sample is usable.
    #[must_use]
    pub fn validation_loss(&self, samples: &[Sample]) -> f64 {
        trmma_nn::train::validation_loss(samples, |s, backward| self.sample_loss(s, backward))
            .unwrap_or(f64::NAN)
    }

    /// Trains with the multitask loss of Eq. 19–21 on samples'
    /// ground-truth routes and dense trajectories, one Adam step per
    /// `batch_size` trajectories. Every call reshuffles from the config's
    /// seed with a fresh optimiser, so `train(s, k)` is exactly the first
    /// `k` epochs of any longer run.
    pub fn train(&mut self, samples: &[Sample], epochs: usize) -> TrainReport {
        self.fit(samples, None, epochs)
    }

    /// Trains with validation-based early stopping, stopping after
    /// `patience` epochs without a new best and restoring the best epoch's
    /// weights — those of `train(train, k*)`, `k*` the best epoch ("all
    /// methods are trained to converge" with a 30 % validation split,
    /// §VI-A).
    ///
    /// # Panics
    /// Panics naming `val.len()` when no validation sample is usable.
    pub fn train_early_stop(
        &mut self,
        train: &[Sample],
        val: &[Sample],
        max_epochs: usize,
        patience: usize,
    ) -> TrainReport {
        self.fit(train, Some((val, patience)), max_epochs)
    }

    fn fit(
        &self,
        train: &[Sample],
        early_stop: Option<(&[Sample], usize)>,
        epochs: usize,
    ) -> TrainReport {
        let (lr, batch, seed) = (self.cfg.lr, self.cfg.batch_size, self.cfg.seed ^ 0x7_12A);
        let loss = |s: &Sample, backward| self.sample_loss(s, backward);
        trmma_nn::train::fit(&self.params, loss, train, early_stop, epochs, lr, batch, seed)
    }

    /// Serialises the trained weights as a TNN1 blob (`weights.rs`).
    #[must_use]
    pub fn save_weights(&self) -> Vec<u8> {
        crate::weights::save_params(&self.params)
    }

    /// Loads weights produced by [`Trmma::save_weights`] into a model of
    /// the same configuration.
    ///
    /// # Errors
    /// Fails (without modifying the model) on any header, count or shape
    /// mismatch and on trailing bytes.
    pub fn load_weights(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        crate::weights::load_params(&self.params, blob)
    }

    /// One teacher-forced forward pass and its loss; gradients accumulate
    /// into the params when `backward` is set (the caller steps the
    /// optimiser). `None` when the sample is unusable.
    fn sample_loss(&self, sample: &Sample, backward: bool) -> Option<f64> {
        let route = &sample.route.segs;
        if route.is_empty() || sample.dense_truth.len() < 3 || sample.sparse.len() < 2 {
            return None;
        }
        // Route position of each dense point (monotone cursor).
        let positions = route_positions(route, &sample.dense_truth)?;
        let observed: std::collections::HashSet<usize> =
            sample.dense_indices.iter().copied().collect();

        let mut g = Graph::new();
        let big_h = self.encode(&mut g, &sample.sparse, &sample.sparse_truth, route);
        let mut h = g.mean_rows(big_h);
        let geom = RouteGeom::new(&self.net, route);

        let mut w_cols = Vec::new();
        let mut onehot_rows: Vec<Vec<f64>> = Vec::new();
        let mut ratio_preds = Vec::new();
        let mut ratio_targets = Vec::new();
        // Enclosing observed pair per tick, for the gap features.
        let mut obs_iter = sample.dense_indices.windows(2);
        let mut gap = obs_iter.next()?;
        for j in 1..sample.dense_truth.len() {
            while j > gap[1] {
                gap = obs_iter.next()?;
            }
            let span = (gap[1] - gap[0]).max(1);
            let frac = (j - gap[0]) as f64 / span as f64;
            let gap_norm = (span as f64 / 20.0).min(2.0);
            let prev = &sample.dense_truth.points[j - 1];
            h = self.gru_step(&mut g, big_h, h, positions[j - 1], prev.ratio, frac, gap_norm);
            if observed.contains(&j) {
                continue; // the point is known; no prediction loss
            }
            let obs_a = &sample.dense_truth.points[gap[0]];
            let obs_b = &sample.dense_truth.points[gap[1]];
            let off_a = geom.offset(positions[gap[0]], obs_a.ratio);
            let off_b = geom.offset(positions[gap[1]], obs_b.ratio);
            let prev_off = geom.offset(positions[j - 1], prev.ratio);
            let anchor = off_a + frac * (off_b - off_a);
            let w = self.cls_scores(&mut g, big_h, h, &geom, prev_off, anchor, off_b);
            let ratio =
                self.ratio_pred(&mut g, big_h, h, w, frac, anchor - prev_off, off_b - off_a);
            w_cols.push(w);
            let mut onehot = vec![0.0; route.len()];
            onehot[positions[j]] = 1.0;
            onehot_rows.push(onehot);
            ratio_preds.push(ratio);
            ratio_targets.push(sample.dense_truth.points[j].ratio);
        }
        if w_cols.is_empty() {
            return None;
        }
        let all_w = g.concat_rows(&w_cols);
        let flat: Vec<f64> = onehot_rows.into_iter().flatten().collect();
        let targets = Matrix::from_vec(flat.len(), 1, flat);
        let seg_loss = g.bce_with_logits(all_w, targets);
        let all_ratio = g.concat_rows(&ratio_preds);
        let ratio_loss =
            g.l1_loss(all_ratio, Matrix::from_vec(ratio_targets.len(), 1, ratio_targets));
        let scaled = g.scale(ratio_loss, self.cfg.lambda);
        let loss = g.add(seg_loss, scaled);
        if backward {
            g.backward(loss);
        }
        Some(g.value(loss).get(0, 0))
    }

    /// Recovery given a map-matching result (Algorithm 2 lines 5–17).
    ///
    /// `matched` holds one matched point per sparse GPS point; `route` is
    /// the matched route. Missing points between consecutive observations
    /// are decoded sequentially, restricted to the sub-route from the
    /// previously emitted segment onward (Eq. 17).
    #[must_use]
    pub fn recover_from_match(
        &self,
        traj: &Trajectory,
        matched: &[MatchedPoint],
        route: &Route,
        epsilon_s: f64,
    ) -> MatchedTrajectory {
        self.recover_from_match_with(&mut Graph::new(), traj, matched, route, epsilon_s)
    }

    /// [`Trmma::recover_from_match`] through a caller-owned tape: the graph
    /// is reset (arena kept) instead of reallocated per trajectory. The
    /// batch engine's per-worker hot path; output is bitwise-identical to
    /// the allocating variant.
    ///
    /// Nothing is recorded on the tape: `g` only holds the decoder's weight
    /// bindings (one copy per trajectory). The DualFormer encoder and the
    /// per-point decode are replayed off it on flat slices — workspaces
    /// sized once per call, nothing allocated or recorded per point — bit
    /// for bit what `Trmma::encode` and the tape step functions record
    /// when training (DESIGN.md §14–15). The signature keeps `&mut Graph`,
    /// so the encoder's workspace (its positional rows included) is made per
    /// call rather than kept per worker.
    ///
    /// # Panics
    /// Panics unless `epsilon_s` is finite and positive (see
    /// [`epsilon_ticks`]).
    #[must_use]
    pub fn recover_from_match_with(
        &self,
        g: &mut Graph,
        traj: &Trajectory,
        matched: &[MatchedPoint],
        route: &Route,
        epsilon_s: f64,
    ) -> MatchedTrajectory {
        if matched.is_empty() || route.is_empty() {
            return MatchedTrajectory::new(matched.to_vec());
        }
        let segs = &route.segs;
        g.reset();
        let dh = self.cfg.dh;
        let big_h = self.encode_flat(traj, matched, segs);
        // `Graph::mean_rows`: column sums in row order, times the reciprocal.
        let mut h0 = vec![0.0; dh];
        for row in big_h.chunks_exact(dh) {
            for (o, &x) in h0.iter_mut().zip(row) {
                *o += x;
            }
        }
        let inv = 1.0 / segs.len() as f64;
        for o in &mut h0 {
            *o *= inv;
        }
        let geom = RouteGeom::new(&self.net, segs);
        let mut dec = Decoder::bind(self, g, &big_h, h0, &geom);

        let mut out: Vec<MatchedPoint> = Vec::new();
        let mut cursor = segs.iter().position(|&s| s == matched[0].seg).unwrap_or(0);
        out.push(matched[0]);
        let mut prev = matched[0];
        let mut prev_off = geom.offset(cursor, prev.ratio);
        for next_obs in matched.iter().skip(1) {
            let interval = next_obs.t - prev.t;
            let missing = if interval > 0.0 {
                epsilon_ticks(interval, epsilon_s).saturating_sub(1)
            } else {
                0
            };
            // Upper bound of the sub-route: the recovered points of this gap
            // cannot pass the next observation (Algorithm 2 appends a_{i+1}
            // after the gap's loop, so its segment closes the sub-route).
            let gap_end = segs[cursor..]
                .iter()
                .position(|&s| s == next_obs.seg)
                .map_or(segs.len() - 1, |d| cursor + d);
            let base_t = prev.t;
            let span = (missing + 1) as f64;
            let gap_norm = (span / 20.0).min(2.0);
            let gap_start_off = prev_off;
            let off_b = geom.offset(gap_end, next_obs.ratio).max(gap_start_off);
            for j in 1..=missing {
                let frac = j as f64 / span;
                dec.gru_step(cursor, prev.ratio, frac, gap_norm);
                let anchor = gap_start_off + frac * (off_b - gap_start_off);
                let col = dec.cls_scores(prev_off, anchor, off_b);
                // Eq. 17: argmax over the sub-route R[a_{j-1}.e, :],
                // bounded above by the next observation's segment.
                let mut best = cursor;
                for k in cursor..=gap_end {
                    if col[k] > col[best] {
                        best = k;
                    }
                }
                let ratio = dec.ratio_pred(frac, anchor - prev_off, off_b - gap_start_off);
                cursor = best;
                prev = MatchedPoint::new(segs[best], ratio, base_t + j as f64 * epsilon_s);
                prev_off = geom.offset(best, prev.ratio).max(prev_off);
                out.push(prev);
            }
            // Advance over the observed point.
            dec.gru_step(cursor, prev.ratio, 1.0, gap_norm);
            cursor = gap_end.max(cursor);
            out.push(*next_obs);
            prev = *next_obs;
            prev_off = off_b;
        }
        MatchedTrajectory::new(out)
    }
}

/// A [`Linear`] bound on a tape ([`Linear::bind`]), read as flat row-major
/// slices.
#[derive(Clone, Copy)]
struct Dense<'a> {
    w: &'a [f64],
    b: Option<&'a [f64]>,
}

impl<'a> Dense<'a> {
    fn new(g: &'a Graph, (w, b): (NodeId, Option<NodeId>)) -> Self {
        Self { w: g.value(w).data(), b: b.map(|b| g.value(b).data()) }
    }

    /// The bias `add_row` of [`Linear::forward`]: added after the full sum,
    /// never as its initial value.
    fn add_bias(&self, out: &mut [f64]) {
        if let Some(b) = self.b {
            for (o, &y) in out.iter_mut().zip(b) {
                *o += y;
            }
        }
    }

    /// [`Linear::forward`] on one row: `out = x · W (+ b)`.
    fn forward(&self, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        vecmat_skip_zero(x, self.w, out);
        self.add_bias(out);
    }
}

/// `Graph::sigmoid` on one element.
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The decoder of one trajectory, run forward-only on flat slices.
///
/// [`Trmma::gru_step`], [`Trmma::cls_scores`] and [`Trmma::ratio_pred`]
/// stay the definition of the decoder — training differentiates through
/// them — and each method here replays the one of the same name: the same
/// operands, multiplied and added in the same order, with the same
/// zero-coefficient skips as `Matrix::matmul_into`, so every output bit is
/// the tape's (`tape_free_decode_*` tests). What the tape cannot do and
/// this does: Eq. 15's first layer runs over `[H | h repeated | feats]`,
/// and an i-k-j product adds a row's terms left to right, so the `H` part
/// of every row's sum is a prefix that depends on the trajectory only
/// (`p`, computed once), and the `h` part adds the same `dh` product rows
/// to every route row (`t`, computed once per step, then only *added* per
/// row). All buffers are sized here, once per trajectory.
struct Decoder<'a> {
    dh: usize,
    geom: &'a RouteGeom,
    /// `H`, `ℓ_R × dh`.
    big_h: &'a [f64],
    /// `W_z, U_z, W_r, U_r, W_h, U_h`.
    gru: [Dense<'a>; 6],
    cls: [Dense<'a>; 2],
    ratio: [Dense<'a>; 2],
    /// `H · W_8[0..dh]`, `ℓ_R × dh`.
    p: Vec<f64>,
    /// GRU hidden state.
    h: Vec<f64>,
    /// GRU input `[H[prev] | prev ratio, frac, gap_norm]`.
    x: Vec<f64>,
    /// Four `dh`-wide rows of GRU intermediates.
    gates: Vec<f64>,
    /// The non-skipped rows of `h[k] · W_8[dh + k]`, at most `dh × dh`.
    t: Vec<f64>,
    /// Eq. 15's hidden layer, `ℓ_R × dh`.
    hidden: Vec<f64>,
    /// Eq. 15's scores `w`, then (in place) their softmax `ψ`.
    w: Vec<f64>,
    /// Eq. 18's input `[h | ψ · H | frac, anchor − prev, gap]`.
    cat: Vec<f64>,
    /// Eq. 18's hidden layer.
    ratio_hidden: Vec<f64>,
}

impl<'a> Decoder<'a> {
    /// Binds `model`'s decoder weights on `g` (one copy per trajectory;
    /// nothing else is ever recorded on `g`) and computes the route-side
    /// prefix `p` of the encoded route `big_h`; `h0` is the initial hidden
    /// state.
    fn bind(
        model: &Trmma,
        g: &'a mut Graph,
        big_h: &'a [f64],
        h0: Vec<f64>,
        geom: &'a RouteGeom,
    ) -> Self {
        let gru = model.gru.linears().map(|l| l.bind(g));
        let cls = model.cls_mlp.layers().map(|l| l.bind(g));
        let ratio = model.ratio_mlp.layers().map(|l| l.bind(g));
        let g = &*g;
        let dh = model.cfg.dh;
        let cls = cls.map(|ids| Dense::new(g, ids));
        let mut p = vec![0.0; big_h.len()];
        for (p_row, h_row) in p.chunks_exact_mut(dh).zip(big_h.chunks_exact(dh)) {
            vecmat_skip_zero(h_row, &cls[0].w[..dh * dh], p_row);
        }
        let rows = geom.lens.len();
        Self {
            dh,
            geom,
            big_h,
            gru: gru.map(|ids| Dense::new(g, ids)),
            cls,
            ratio: ratio.map(|ids| Dense::new(g, ids)),
            p,
            h: h0,
            x: vec![0.0; dh + 3],
            gates: vec![0.0; 4 * dh],
            t: vec![0.0; dh * dh],
            hidden: vec![0.0; rows * dh],
            w: vec![0.0; rows],
            cat: vec![0.0; 2 * dh + 3],
            ratio_hidden: vec![0.0; dh],
        }
    }

    /// [`Trmma::gru_step`] (`GruCell::step`), advancing `self.h`.
    fn gru_step(&mut self, prev_pos: usize, prev_ratio: f64, frac: f64, gap_norm: f64) {
        let dh = self.dh;
        let [wz, uz, wr, ur, wh, uh] = self.gru;
        self.x[..dh].copy_from_slice(&self.big_h[prev_pos * dh..(prev_pos + 1) * dh]);
        self.x[dh..].copy_from_slice(&[prev_ratio, frac, gap_norm]);
        let x = &self.x[..];
        let (z, rest) = self.gates.split_at_mut(dh);
        let (r, rest) = rest.split_at_mut(dh);
        let (a, b) = rest.split_at_mut(dh);
        // z = σ(x·Wz + bz + h·Uz)
        wz.forward(x, z);
        uz.forward(&self.h, a);
        for (z, &zh) in z.iter_mut().zip(&*a) {
            *z = sigmoid(*z + zh);
        }
        // r ∘ h, with r = σ(x·Wr + br + h·Ur)
        wr.forward(x, r);
        ur.forward(&self.h, a);
        for ((r, &rh), &h) in r.iter_mut().zip(&*a).zip(&self.h) {
            *r = sigmoid(*r + rh) * h;
        }
        // h̃ = tanh(x·Wh + bh + (r ∘ h)·Uh)
        wh.forward(x, a);
        uh.forward(r, b);
        // h' = (1 − z) ∘ h + z ∘ h̃, `1 − z` as the tape forms it:
        // `scale(z, -1.0)` then `add_scalar(1.0)`.
        #[allow(clippy::neg_multiply)]
        for (((h, &z), &hx), &hh) in self.h.iter_mut().zip(&*z).zip(&*a).zip(&*b) {
            *h = (-1.0 * z + 1.0) * *h + z * (hx + hh).tanh();
        }
    }

    /// [`Trmma::cls_scores`] for the current `self.h`: the scores column
    /// `w` over all route rows (kept in `self.w` for [`Decoder::ratio_pred`]).
    fn cls_scores(&mut self, prev_off: f64, anchor_off: f64, end_off: f64) -> &[f64] {
        let dh = self.dh;
        let [l1, l2] = self.cls;
        let (w_h, w_feats) = l1.w[dh * dh..].split_at(dh * dh);
        // The `h` part of the first layer: one product row per non-zero
        // `h[k]`, shared by every route row.
        let mut used = 0;
        for (&a, w_row) in self.h.iter().zip(w_h.chunks_exact(dh)) {
            if a == 0.0 {
                continue;
            }
            for (t, &b) in self.t[used..used + dh].iter_mut().zip(w_row) {
                *t = a * b;
            }
            used += dh;
        }
        add_rows_in_order(&self.p, &self.t[..used], dh, &mut self.hidden);
        const S: f64 = 200.0;
        let geom = self.geom;
        for (k, row) in self.hidden.chunks_exact_mut(dh).enumerate() {
            let mid = geom.prefix[k] + geom.lens[k] / 2.0;
            let feats = [
                ((mid - anchor_off) / S).clamp(-4.0, 4.0),
                ((geom.prefix[k] - prev_off) / S).clamp(-4.0, 4.0),
                ((geom.prefix[k] + geom.lens[k] - end_off) / S).clamp(-4.0, 4.0),
            ];
            vecmat_skip_zero(&feats, w_feats, row);
            l1.add_bias(row);
            relu_in_place(row);
        }
        self.w.fill(0.0);
        matvec_skip_zero(&self.hidden, l2.w, &mut self.w);
        if let Some(b) = l2.b {
            for w in &mut self.w {
                *w += b[0];
            }
        }
        &self.w
    }

    /// [`Trmma::ratio_pred`] for the current `self.h` and the scores the
    /// preceding [`Decoder::cls_scores`] left in `self.w` (consumed: turned
    /// into `ψ` in place).
    fn ratio_pred(&mut self, frac: f64, anchor_minus_prev: f64, gap_m: f64) -> f64 {
        let dh = self.dh;
        let [l1, l2] = self.ratio;
        // ψ = softmax(w), as `Graph::softmax_rows`.
        let psi = &mut self.w[..];
        softmax_in_place(psi);
        let (h, rest) = self.cat.split_at_mut(dh);
        let (ctx, scalars) = rest.split_at_mut(dh);
        h.copy_from_slice(&self.h);
        ctx.fill(0.0);
        vecmat_skip_zero(psi, self.big_h, ctx);
        scalars.copy_from_slice(&[
            frac,
            (anchor_minus_prev / 200.0).clamp(-4.0, 4.0),
            (gap_m / 1000.0).min(5.0),
        ]);
        l1.forward(&self.cat, &mut self.ratio_hidden);
        relu_in_place(&mut self.ratio_hidden);
        let mut pre = [0.0];
        matvec_skip_zero(&self.ratio_hidden, l2.w, &mut pre);
        l2.add_bias(&mut pre);
        sigmoid(pre[0])
    }
}

/// Metre-scale geometry of a route: prefix offsets and segment lengths.
struct RouteGeom {
    prefix: Vec<f64>,
    lens: Vec<f64>,
}

impl RouteGeom {
    fn new(net: &RoadNetwork, segs: &[SegmentId]) -> Self {
        let mut prefix = Vec::with_capacity(segs.len());
        let mut lens = Vec::with_capacity(segs.len());
        let mut acc = 0.0;
        for &s in segs {
            let len = net.segment(s).length;
            prefix.push(acc);
            lens.push(len);
            acc += len;
        }
        Self { prefix, lens }
    }

    /// Route offset (metres from the route start) of a position.
    fn offset(&self, pos: usize, ratio: f64) -> f64 {
        self.prefix[pos] + ratio * self.lens[pos]
    }
}

/// Route position of each matched point, scanning monotonically; `None`
/// when some point's segment is absent from the route.
fn route_positions(route: &[SegmentId], dense: &MatchedTrajectory) -> Option<Vec<usize>> {
    let mut out = Vec::with_capacity(dense.len());
    let mut cursor = 0usize;
    for p in &dense.points {
        let pos = route[cursor..].iter().position(|&s| s == p.seg)? + cursor;
        out.push(pos);
        cursor = pos;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
    use trmma_traj::metrics::recovery_metrics;

    fn setup() -> (Arc<RoadNetwork>, trmma_traj::Dataset) {
        let ds = build_dataset(&DatasetConfig::tiny());
        (Arc::new(ds.net.clone()), ds)
    }

    /// Ground-truth-driven recovery input (isolates TRMMA from matching).
    fn truth_inputs(s: &trmma_traj::Sample) -> (&Trajectory, &[MatchedPoint], Route) {
        (&s.sparse, &s.sparse_truth, s.route.clone())
    }

    #[test]
    fn untrained_recovery_shapes_are_correct() {
        let (net, ds) = setup();
        let model = Trmma::new(net, TrmmaConfig::small());
        let s = &ds.samples(Split::Test, 0.2, 1)[0];
        let (traj, matched, route) = truth_inputs(s);
        let rec = model.recover_from_match(traj, matched, &route, ds.epsilon_s);
        assert_eq!(rec.len(), s.dense_truth.len(), "ε-grid must align");
        assert!(rec.satisfies_epsilon(ds.epsilon_s, 1e-6));
        // All recovered segments lie on the route.
        for p in &rec.points {
            assert!(route.segs.contains(&p.seg));
        }
    }

    #[test]
    fn recovered_segments_follow_route_order() {
        let (net, ds) = setup();
        let model = Trmma::new(net, TrmmaConfig::small());
        let s = &ds.samples(Split::Test, 0.2, 2)[0];
        let (traj, matched, route) = truth_inputs(s);
        let rec = model.recover_from_match(traj, matched, &route, ds.epsilon_s);
        let mut cursor = 0usize;
        for p in &rec.points {
            let pos = route.segs[cursor..].iter().position(|&e| e == p.seg).map(|d| cursor + d);
            assert!(pos.is_some(), "segment order violated");
            cursor = pos.unwrap();
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (net, ds) = setup();
        let mut model = Trmma::new(net, TrmmaConfig::small());
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(8).collect();
        let report = model.train(&train, 4);
        assert!(report.final_loss() < report.epoch_losses[0], "{:?}", report.epoch_losses);
    }

    #[test]
    fn trained_beats_untrained_on_accuracy() {
        let (net, ds) = setup();
        let train = ds.samples(Split::Train, 0.2, 3);
        let test: Vec<_> = ds.samples(Split::Test, 0.2, 4).into_iter().take(5).collect();
        let eval = |m: &Trmma| -> f64 {
            let mut acc = 0.0;
            for s in &test {
                let (traj, matched, route) = truth_inputs(s);
                let rec = m.recover_from_match(traj, matched, &route, ds.epsilon_s);
                acc += recovery_metrics(m.network(), &rec, &s.dense_truth, None).accuracy;
            }
            acc / test.len() as f64
        };
        let untrained = Trmma::new(net.clone(), TrmmaConfig::small());
        let before = eval(&untrained);
        let mut trained = Trmma::new(net, TrmmaConfig::small());
        trained.train(&train, 6);
        let after = eval(&trained);
        assert!(after >= before, "training hurt recovery: before {before:.3} after {after:.3}");
        // The tiny fixture plus few epochs only supports a loose bar; the
        // bench harness exercises converged quality.
        assert!(after > 0.3, "trained accuracy too low: {after:.3}");
    }

    #[test]
    fn dualformer_ablation_changes_encoding() {
        let (net, ds) = setup();
        let s = &ds.samples(Split::Test, 0.2, 5)[0];
        let full = Trmma::new(net.clone(), TrmmaConfig::small());
        let ablated =
            Trmma::new(net, TrmmaConfig { use_dualformer: false, ..TrmmaConfig::small() });
        let (traj, matched, route) = truth_inputs(s);
        let a = full.recover_from_match(traj, matched, &route, ds.epsilon_s);
        let b = ablated.recover_from_match(traj, matched, &route, ds.epsilon_s);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn weights_round_trip_preserves_predictions() {
        let (net, ds) = setup();
        let mut trained = Trmma::new(net.clone(), TrmmaConfig::small());
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(6).collect();
        trained.train(&train, 2);
        let blob = trained.save_weights();
        let mut fresh = Trmma::new(net, TrmmaConfig::small());
        fresh.load_weights(&blob).unwrap();
        let s = &ds.samples(Split::Test, 0.2, 9)[0];
        let (traj, matched, route) = truth_inputs(s);
        let a = trained.recover_from_match(traj, matched, &route, ds.epsilon_s);
        let b = fresh.recover_from_match(traj, matched, &route, ds.epsilon_s);
        assert_eq!(a, b, "loaded model must reproduce the trained model");
    }

    #[test]
    fn early_stopping_restores_best_epoch() {
        let (net, ds) = setup();
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(8).collect();
        let val: Vec<_> = ds.samples(Split::Val, 0.2, 4).into_iter().take(4).collect();
        let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
        let report = model.train_early_stop(&train, &val, 6, 2);
        assert!(!report.epoch_losses.is_empty());
        assert!(report.epoch_losses.len() <= 6);
        assert_eq!(report.val_losses.len(), report.epoch_losses.len());
        // Every `train` call reshuffles from the seed with a fresh Adam, so
        // the restored weights are exactly a plain run of the best epoch's
        // length, and score that epoch's validation loss.
        let vl = &report.val_losses;
        let best = (0..vl.len()).fold(0, |b, i| if vl[i] < vl[b] { i } else { b });
        let mut plain = Trmma::new(net, TrmmaConfig::small());
        plain.train(&train, best + 1);
        assert!(model.save_weights() == plain.save_weights(), "restored ≠ train(…, {})", best + 1);
        assert_eq!(model.validation_loss(&val).to_bits(), vl[best].to_bits());
    }

    #[test]
    fn validation_leaves_accumulated_gradients_alone() {
        let (net, ds) = setup();
        let samples = ds.samples(Split::Train, 0.2, 3);
        let model = Trmma::new(net, TrmmaConfig::small());
        // A gradient part-way through a batch: one sample back-propagated.
        let usable = samples.iter().find(|s| model.sample_loss(s, true).is_some());
        assert!(usable.is_some(), "the fixture has a trainable sample");
        let before: Vec<Matrix> = model.params.iter().map(Param::grad).collect();
        assert!(before.iter().any(|g| g.frobenius() > 0.0));
        assert!(model.validation_loss(&samples[..4]).is_finite());
        let after: Vec<Matrix> = model.params.iter().map(Param::grad).collect();
        assert!(before == after, "validation changed the accumulated gradients");
    }

    #[test]
    fn early_stopping_refuses_an_unusable_validation_set() {
        let (net, ds) = setup();
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(4).collect();
        let mut model = Trmma::new(net, TrmmaConfig::small());
        assert!(model.validation_loss(&[]).is_nan());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.train_early_stop(&train, &[], 10, 2)
        }))
        .expect_err("an empty validation set must be refused");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("val.len() = 0") && msg.contains("usable"), "{msg}");
    }

    impl Trmma {
        /// The decode loop as it ran before it left the tape, kept verbatim:
        /// every step recorded through the unchanged `gru_step` /
        /// `cls_scores` / `ratio_pred` that training differentiates. The
        /// reference [`Decoder`] must match bit for bit.
        fn recover_on_tape(
            &self,
            g: &mut Graph,
            traj: &Trajectory,
            matched: &[MatchedPoint],
            route: &Route,
            epsilon_s: f64,
        ) -> MatchedTrajectory {
            if matched.is_empty() || route.is_empty() {
                return MatchedTrajectory::new(matched.to_vec());
            }
            let segs = &route.segs;
            g.reset();
            let big_h = self.encode(g, traj, matched, segs);
            let mut h = g.mean_rows(big_h);
            let geom = RouteGeom::new(&self.net, segs);

            let mut out: Vec<MatchedPoint> = Vec::new();
            let mut cursor = segs.iter().position(|&s| s == matched[0].seg).unwrap_or(0);
            out.push(matched[0]);
            let mut prev = matched[0];
            let mut prev_off = geom.offset(cursor, prev.ratio);
            for next_obs in matched.iter().skip(1) {
                let interval = next_obs.t - prev.t;
                let missing = if interval > 0.0 {
                    ((interval / epsilon_s).round() as usize).saturating_sub(1)
                } else {
                    0
                };
                let gap_end = segs[cursor..]
                    .iter()
                    .position(|&s| s == next_obs.seg)
                    .map_or(segs.len() - 1, |d| cursor + d);
                let base_t = prev.t;
                let span = (missing + 1) as f64;
                let gap_norm = (span / 20.0).min(2.0);
                let gap_start_off = prev_off;
                let off_b = geom.offset(gap_end, next_obs.ratio).max(gap_start_off);
                for j in 1..=missing {
                    let frac = j as f64 / span;
                    h = self.gru_step(g, big_h, h, cursor, prev.ratio, frac, gap_norm);
                    let anchor = gap_start_off + frac * (off_b - gap_start_off);
                    let w = self.cls_scores(g, big_h, h, &geom, prev_off, anchor, off_b);
                    let col = g.value(w);
                    let mut best = cursor;
                    for k in cursor..=gap_end {
                        if col.get(k, 0) > col.get(best, 0) {
                            best = k;
                        }
                    }
                    let ratio_node = self.ratio_pred(
                        g,
                        big_h,
                        h,
                        w,
                        frac,
                        anchor - prev_off,
                        off_b - gap_start_off,
                    );
                    let ratio = g.value(ratio_node).get(0, 0);
                    cursor = best;
                    prev = MatchedPoint::new(segs[best], ratio, base_t + j as f64 * epsilon_s);
                    prev_off = geom.offset(best, prev.ratio).max(prev_off);
                    out.push(prev);
                }
                h = self.gru_step(g, big_h, h, cursor, prev.ratio, 1.0, gap_norm);
                cursor = gap_end.max(cursor);
                out.push(*next_obs);
                prev = *next_obs;
                prev_off = off_b;
            }
            MatchedTrajectory::new(out)
        }
    }

    /// Asserts the tape-free decode equals the tape decode on every bit,
    /// through a fresh graph and through `dirty` (left holding whatever the
    /// previous call recorded). Returns the number of decoded points.
    fn assert_decode_matches_tape(
        model: &Trmma,
        dirty: &mut Graph,
        traj: &Trajectory,
        matched: &[MatchedPoint],
        route: &Route,
        eps: f64,
        what: &str,
    ) -> usize {
        let bits = |m: &MatchedTrajectory| -> Vec<(SegmentId, u64, u64)> {
            m.points.iter().map(|p| (p.seg, p.ratio.to_bits(), p.t.to_bits())).collect()
        };
        let want = bits(&model.recover_on_tape(&mut Graph::new(), traj, matched, route, eps));
        let fresh = bits(&model.recover_from_match(traj, matched, route, eps));
        assert_eq!(fresh, want, "{what}: fresh graph");
        let reused = bits(&model.recover_from_match_with(dirty, traj, matched, route, eps));
        assert_eq!(reused, want, "{what}: dirty reused graph");
        want.len().saturating_sub(matched.len())
    }

    #[test]
    fn tape_free_decode_is_bitwise_the_tape_decode_on_a_seeded_sweep() {
        let mut decoded = 0usize;
        for net_seed in [9u64, 31, 77] {
            let ds = build_dataset(&DatasetConfig {
                net: trmma_roadnet::NetworkConfig::with_size(7, 7, net_seed),
                n_trajectories: 20,
                seed: 900 + net_seed,
                ..DatasetConfig::tiny()
            });
            let net = Arc::new(ds.net.clone());
            let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(3).collect();
            // dh = 20 leaves a four-column tail behind the eight-wide blocks.
            for dh in [8usize, 20, 24] {
                for use_dualformer in [true, false] {
                    for trained in [false, true] {
                        let cfg = TrmmaConfig {
                            dh,
                            d_emb: 6,
                            n_heads: 2,
                            ffn: 16,
                            use_dualformer,
                            seed: net_seed + dh as u64,
                            ..TrmmaConfig::small()
                        };
                        let mut model = Trmma::new(net.clone(), cfg);
                        if trained {
                            model.train(&train, 1);
                        }
                        let mut dirty = Graph::new();
                        for (gi, gamma) in [0.1, 0.2, 0.5].into_iter().enumerate() {
                            let samples = ds.samples(Split::Test, gamma, net_seed + gi as u64);
                            let s = &samples[(dh + gi) % samples.len()];
                            for eps in [ds.epsilon_s, ds.epsilon_s / 2.0] {
                                let what = format!(
                                    "net {net_seed} dh {dh} df {use_dualformer} \
                                     trained {trained} γ {gamma} ε {eps}"
                                );
                                let (traj, matched, route) = truth_inputs(s);
                                decoded += assert_decode_matches_tape(
                                    &model, &mut dirty, traj, matched, &route, eps, &what,
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(decoded > 2_000, "the sweep decoded only {decoded} points");
    }

    /// A trajectory whose GPS points sit on their matched points.
    fn traj_on(net: &RoadNetwork, matched: &[MatchedPoint]) -> Trajectory {
        Trajectory {
            points: matched
                .iter()
                .map(|a| trmma_traj::types::GpsPoint { pos: a.pos(net), t: a.t })
                .collect(),
        }
    }

    /// Hand-built inputs for every branch of the decode loop's bookkeeping;
    /// ratios of exactly 0.0 and 1.0 make GRU inputs and metre features
    /// exact zeros, so those coefficient skips are taken too.
    fn edge_cases(net: &RoadNetwork) -> Vec<(&'static str, Vec<MatchedPoint>, Route)> {
        use trmma_traj::types::MatchedPoint as MP;
        let e0 = SegmentId(0);
        let e1 = net.successors(e0)[0];
        let e2 = net.successors(e1)[0];
        let e3 = net.successors(e2)[0];
        let off_route = SegmentId((net.num_segments() - 1) as u32);
        assert!(![e0, e1, e2, e3].contains(&off_route));
        vec![
            (
                "one-segment route",
                vec![MP::new(e0, 0.0, 0.0), MP::new(e0, 0.4, 60.0), MP::new(e0, 1.0, 105.0)],
                Route::new(vec![e0]),
            ),
            (
                "a gap with zero missing points",
                vec![MP::new(e0, 0.2, 0.0), MP::new(e1, 0.1, 15.0), MP::new(e2, 1.0, 75.0)],
                Route::new(vec![e0, e1, e2]),
            ),
            (
                "equal and decreasing timestamps",
                vec![
                    MP::new(e0, 0.0, 30.0),
                    MP::new(e1, 0.5, 30.0),
                    MP::new(e1, 0.7, 10.0),
                    MP::new(e2, 0.5, 100.0),
                ],
                Route::new(vec![e0, e1, e2]),
            ),
            (
                "first matched segment absent from the route",
                vec![MP::new(off_route, 0.3, 0.0), MP::new(e2, 0.5, 90.0)],
                Route::new(vec![e0, e1, e2]),
            ),
            (
                "next observation absent from the sub-route",
                vec![MP::new(e1, 0.0, 0.0), MP::new(e0, 0.5, 60.0), MP::new(off_route, 0.5, 120.0)],
                Route::new(vec![e0, e1, e2, e3]),
            ),
            (
                "a route that revisits a segment",
                vec![
                    MP::new(e0, 0.5, 0.0),
                    MP::new(e1, 0.5, 45.0),
                    MP::new(e0, 0.25, 120.0),
                    MP::new(e2, 1.0, 200.0),
                ],
                Route::new(vec![e0, e1, e0, e1, e2]),
            ),
        ]
    }

    #[test]
    fn tape_free_decode_is_bitwise_the_tape_decode_on_edge_inputs() {
        let (net, ds) = setup();
        let mut trained = Trmma::new(net.clone(), TrmmaConfig::small());
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(4).collect();
        trained.train(&train, 1);
        let untrained =
            Trmma::new(net.clone(), TrmmaConfig { use_dualformer: false, ..TrmmaConfig::small() });
        let mut dirty = Graph::new();
        for model in [&trained, &untrained] {
            for (what, matched, route) in edge_cases(&net) {
                let traj = traj_on(&net, &matched);
                for eps in [15.0, 7.5] {
                    assert_decode_matches_tape(
                        model, &mut dirty, &traj, &matched, &route, eps, what,
                    );
                }
            }
            // Nothing to decode: echoed back, as on the tape.
            let (_, matched, route) = edge_cases(&net).remove(0);
            let traj = traj_on(&net, &matched);
            assert_decode_matches_tape(model, &mut dirty, &traj, &[], &route, 15.0, "no matches");
            let empty = Route::default();
            assert_decode_matches_tape(
                model,
                &mut dirty,
                &traj,
                &matched,
                &empty,
                15.0,
                "empty route",
            );
        }
    }

    /// Overwrites every weight with a copy holding exact `0.0`, `-0.0`,
    /// whole zero rows and whole zero columns (every column `c % 4 == 1`).
    /// Zero columns reach the layer-norm gains and biases, so `H`, its row
    /// mean `h_0`, every later `h` (the GRU candidate's column is zero too),
    /// `ψ · H` and both MLPs' hidden layers are exactly zero in those
    /// columns. With finite weights a skipped `0.0 · b` could not show (a
    /// sum that starts at `+0.0` never reaches `-0.0`), so the decoder rows
    /// those structural zeros multiply are then set to `+inf`: the output
    /// stays finite only if every `a == 0.0` skip `matmul_into` takes on
    /// the tape is taken.
    fn salt_weights_with_zeros(model: &Trmma) {
        for p in &model.params {
            let mut m = p.value();
            let (rows, cols) = m.shape();
            for r in 0..rows {
                for c in 0..cols {
                    let zero_line = (rows > 1 && r % 5 == 3) || c % 4 == 1;
                    match (zero_line, (r * cols + c) % 7) {
                        (true, _) | (false, 0) => m.set(r, c, 0.0),
                        (false, 3) => m.set(r, c, -0.0),
                        _ => {}
                    }
                }
            }
            p.set_value(m);
        }
        let dh = model.cfg.dh;
        let decoder = model.gru.linears().into_iter().chain(model.cls_mlp.layers());
        for lin in decoder.chain(model.ratio_mlp.layers()) {
            let mut m = lin.weight().value();
            // Rows fed by `H`, `h`, `ψ · H` or a hidden layer — not the
            // three trailing scalar inputs.
            for r in (0..m.rows() / dh * dh).filter(|r| (r % dh) % 4 == 1) {
                m.row_mut(r).fill(f64::INFINITY);
            }
            lin.weight().set_value(m);
        }
        // The encoders the same way. The zero columns make exact zeros of
        // `seg_emb`'s columns (under `t_fc`'s rows `4 + c`), of every
        // head's queries and values (the queries meet the keys' columns,
        // the values' zeros come out of `attn · V` under `W_O`'s rows), of
        // both layer norms' outputs (under `ffn` layer 1 — and under the
        // next layer's projections, which only a first layer without
        // positional rows would share) and of the ReLU outputs (under
        // `ffn` layer 2). `R`'s zero columns also take the cross-attention
        // skip `r == 0.0`, but what they skip is `T`, an activation, which
        // cannot be poisoned; likewise `β`'s zeros.
        let poison = |p: &Param, rows: bool, hit: &dyn Fn(usize) -> bool| {
            let mut m = p.value();
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    if hit(if rows { r } else { c }) {
                        m.set(r, c, f64::INFINITY);
                    }
                }
            }
            p.set_value(m);
        };
        let t_fc = model.t_fc.weight();
        poison(t_fc, true, &|r| r >= 4 && (r - 4) % 4 == 1);
        let heads = model.cfg.n_heads;
        let d_head = dh / heads;
        for enc in [&model.trans_t, &model.trans_r] {
            // Per layer: W_Q, W_K, W_V per head, W_O, ln1, ffn, ln2.
            for layer in enc.params().chunks_exact(3 * heads + 9) {
                for w_k in &layer[heads..2 * heads] {
                    poison(w_k, false, &|c| c % 4 == 1);
                }
                let [w_o, _, _, w1, _, w2, ..] = &layer[3 * heads..] else {
                    unreachable!("a transformer layer's parameter list")
                };
                poison(w_o, true, &|r| (r % d_head) % 4 == 1);
                poison(w1, true, &|r| r % 4 == 1);
                poison(w2, true, &|r| r % 4 == 1);
            }
        }
    }

    /// `β` of Eq. 13 on the tape, formed as [`Trmma::encode`] forms it.
    fn cross_attention_weights(model: &Trmma, g: &mut Graph, s: &Sample) -> NodeId {
        let r_ids: Vec<usize> = s.route.segs.iter().map(|e| e.idx()).collect();
        let r_emb = model.r_table.embed(g, &r_ids);
        let r_bias = g.param(&model.r_bias);
        let r1 = g.add_row(r_emb, r_bias);
        let r = model.trans_r.forward(g, r1);
        let (w, hgt) = (model.bbox.max.x - model.bbox.min.x, model.bbox.max.y - model.bbox.min.y);
        let (t0, dur) = (s.sparse.points[0].t, s.sparse.duration_s().max(1.0));
        let rows: Vec<Vec<f64>> = s
            .sparse
            .points
            .iter()
            .zip(&s.sparse_truth)
            .map(|(p, a)| {
                let (x, y) = (p.pos.x - model.bbox.min.x, p.pos.y - model.bbox.min.y);
                vec![x / w.max(1.0), y / hgt.max(1.0), (p.t - t0) / dur, a.ratio]
            })
            .collect();
        let feats = g.input(Matrix::from_rows(&rows));
        let t_ids: Vec<usize> = s.sparse_truth.iter().map(|a| a.seg.idx()).collect();
        let t_emb = model.seg_emb.embed(g, &t_ids);
        let t0_mat = g.concat_cols(&[feats, t_emb]);
        let t1 = model.t_fc.forward(g, t0_mat);
        let t = model.trans_t.forward(g, t1);
        let t_t = g.transpose(t);
        let scores = g.matmul(r, t_t);
        g.softmax_rows(scores)
    }

    #[test]
    fn tape_free_decode_takes_every_zero_skip_the_tape_takes() {
        let (net, ds) = setup();
        let samples = ds.samples(Split::Test, 0.2, 6);
        for use_dualformer in [true, false] {
            for steep in [false, true] {
                let model = Trmma::new(
                    net.clone(),
                    TrmmaConfig { dh: 20, use_dualformer, ..TrmmaConfig::small() },
                );
                salt_weights_with_zeros(&model);
                if steep {
                    // Scores thousands apart: ψ underflows to exact zeros,
                    // the coefficients of `ψ · H`.
                    let w9 = model.cls_mlp.layers()[1].weight();
                    w9.set_value(w9.value().map(|x| x * 1e5));
                    // `T` a thousand times larger: so are the differences
                    // between `r_i · t_j`, and β underflows the same way.
                    let trans_t = model.trans_t.params();
                    for p in &trans_t[trans_t.len() - 2..] {
                        p.set_value(p.value().map(|x| x * 1e3));
                    }
                }

                // The salting reaches the operands it is meant to reach.
                let s = &samples[0];
                let mut g = Graph::new();
                let big_h = model.encode(&mut g, &s.sparse, &s.sparse_truth, &s.route.segs);
                let h0 = g.mean_rows(big_h);
                let geom = RouteGeom::new(&net, &s.route.segs);
                let h1 = model.gru_step(&mut g, big_h, h0, 0, 0.0, 0.5, 0.1);
                assert!(g.value(big_h).data().contains(&0.0), "H has no zero");
                assert!(g.value(h1).data().contains(&0.0), "h has no zero");
                if steep {
                    let w = model.cls_scores(&mut g, big_h, h1, &geom, 0.0, 50.0, 400.0);
                    let w_row = g.transpose(w);
                    let psi = g.softmax_rows(w_row);
                    assert!(g.value(psi).data().contains(&0.0), "ψ has no zero");
                    if use_dualformer {
                        let beta = cross_attention_weights(&model, &mut g, s);
                        assert!(g.value(beta).data().contains(&0.0), "β has no zero");
                    }
                }
                let (traj, matched, route) = truth_inputs(s);
                let on_tape = model.recover_on_tape(&mut g, traj, matched, &route, ds.epsilon_s);
                assert!(on_tape.len() > matched.len());
                assert!(
                    on_tape.points.iter().all(|p| p.ratio.is_finite()),
                    "a poisoned row was not skipped on the tape"
                );

                let mut dirty = Graph::new();
                let what = format!("salted, df {use_dualformer}, steep {steep}");
                for s in samples.iter().take(3) {
                    let (traj, matched, route) = truth_inputs(s);
                    assert_decode_matches_tape(
                        &model,
                        &mut dirty,
                        traj,
                        matched,
                        &route,
                        ds.epsilon_s,
                        &what,
                    );
                }
                for (_, matched, route) in edge_cases(&net) {
                    let traj = traj_on(&net, &matched);
                    assert_decode_matches_tape(
                        &model, &mut dirty, &traj, &matched, &route, 15.0, &what,
                    );
                }
            }
        }
    }

    #[test]
    fn unusable_epsilon_is_rejected_by_name() {
        let (net, ds) = setup();
        let model = Trmma::new(net, TrmmaConfig::small());
        let s = &ds.samples(Split::Test, 0.2, 1)[0];
        let (traj, matched, route) = truth_inputs(s);
        for (eps, shown) in
            [(0.0, "got 0"), (-15.0, "got -15"), (f64::NAN, "got NaN"), (f64::INFINITY, "got inf")]
        {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                model.recover_from_match(traj, matched, &route, eps)
            }))
            .expect_err("an unusable ε must not be recovered with");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("epsilon_s") && msg.contains(shown), "ε = {eps}: {msg}");
        }
    }

    #[test]
    fn route_geom_offsets() {
        let (net, _ds) = setup();
        let e0 = SegmentId(0);
        let e1 = net.successors(e0)[0];
        let geom = RouteGeom::new(&net, &[e0, e1]);
        assert_eq!(geom.offset(0, 0.0), 0.0);
        let len0 = net.segment(e0).length;
        assert!((geom.offset(0, 1.0) - len0).abs() < 1e-9);
        assert!((geom.offset(1, 0.0) - len0).abs() < 1e-9);
        let len1 = net.segment(e1).length;
        assert!((geom.offset(1, 0.5) - (len0 + 0.5 * len1)).abs() < 1e-9);
    }

    #[test]
    fn route_positions_handles_repeats_and_misses() {
        use trmma_traj::types::MatchedPoint as MP;
        let route = vec![SegmentId(5), SegmentId(9), SegmentId(5)];
        let dense = MatchedTrajectory::new(vec![
            MP::new(SegmentId(5), 0.1, 0.0),
            MP::new(SegmentId(9), 0.5, 15.0),
            MP::new(SegmentId(5), 0.2, 30.0),
        ]);
        let pos = route_positions(&route, &dense).unwrap();
        assert_eq!(pos, vec![0, 1, 2]);
        let bad = MatchedTrajectory::new(vec![MP::new(SegmentId(7), 0.0, 0.0)]);
        assert!(route_positions(&route, &bad).is_none());
    }
}
