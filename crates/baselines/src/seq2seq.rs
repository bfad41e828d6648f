//! The full-network seq2seq recovery baseline (MTrajRec-style surrogate).
//!
//! A GRU encoder consumes the sparse GPS sequence; a GRU decoder emits one
//! point per ε tick, classifying its segment with a softmax over **all**
//! `|E|` segments of the road network and regressing its position ratio.
//! This is precisely the design the paper argues against: the decoder's
//! output layer scales with the network (`|E|` ≈ 65 k on Beijing), making
//! training and inference expensive, while TRMMA's decoder only scores the
//! handful of segments on the matched route. The baseline exists to
//! reproduce that efficiency *and* quality gap (Tables III, Figs. 5–6).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trmma_geom::BBox;
use trmma_nn::{Adam, Graph, GruCell, Linear, Matrix, Mlp, NodeId, Param};
use trmma_roadnet::{RoadNetwork, SegmentId};
use trmma_traj::api::{epsilon_ticks, CandidateFinder, TrajectoryRecovery};
use trmma_traj::types::{MatchedPoint, MatchedTrajectory, Trajectory};
use trmma_traj::Sample;

use crate::TrainReport;

/// Hyper-parameters of [`Seq2SeqFull`].
#[derive(Debug, Clone)]
pub struct Seq2SeqConfig {
    /// GRU hidden width.
    pub d_model: usize,
    /// Segment-embedding width.
    pub d_emb: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Ratio-loss weight λ.
    pub lambda_ratio: f64,
    /// Init seed.
    pub seed: u64,
}

impl Default for Seq2SeqConfig {
    fn default() -> Self {
        Self { d_model: 64, d_emb: 32, lr: 1e-3, lambda_ratio: 1.0, seed: 11 }
    }
}

/// MTrajRec-style encoder/decoder over the whole network; see module docs.
pub struct Seq2SeqFull {
    net: Arc<RoadNetwork>,
    finder: CandidateFinder,
    bbox: BBox,
    cfg: Seq2SeqConfig,
    in_proj: Linear,
    encoder: GruCell,
    seg_table: Linear,
    dec_in: Linear,
    decoder: GruCell,
    seg_head: Linear,
    ratio_head: Mlp,
    params: Vec<Param>,
}

impl Seq2SeqFull {
    /// Builds an untrained model over `net`.
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, cfg: Seq2SeqConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = net.num_segments();
        let d = cfg.d_model;
        let in_proj = Linear::new(3, d, &mut rng);
        let encoder = GruCell::new(d, d, &mut rng);
        let seg_table = Linear::new_no_bias(n, cfg.d_emb, &mut rng);
        let dec_in = Linear::new(cfg.d_emb + 1, d, &mut rng);
        let decoder = GruCell::new(d, d, &mut rng);
        let seg_head = Linear::new(d, n, &mut rng);
        let ratio_head = Mlp::new(d, d, 1, &mut rng);
        let mut params = Vec::new();
        params.extend(in_proj.params());
        params.extend(encoder.params());
        params.extend(seg_table.params());
        params.extend(dec_in.params());
        params.extend(decoder.params());
        params.extend(seg_head.params());
        params.extend(ratio_head.params());
        let finder = CandidateFinder::new(&net, 1);
        let bbox = net.bbox();
        Self {
            net,
            finder,
            bbox,
            cfg,
            in_proj,
            encoder,
            seg_table,
            dec_in,
            decoder,
            seg_head,
            ratio_head,
            params,
        }
    }

    /// Total scalar weights (dominated by the `d × |E|` output head).
    #[must_use]
    pub fn num_weights(&self) -> usize {
        trmma_nn::param::total_weights(&self.params)
    }

    /// The road network the model decodes over.
    #[must_use]
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    fn norm_features(&self, traj: &Trajectory) -> Vec<[f64; 3]> {
        let w = (self.bbox.max.x - self.bbox.min.x).max(1.0);
        let h = (self.bbox.max.y - self.bbox.min.y).max(1.0);
        let t0 = traj.points.first().map_or(0.0, |p| p.t);
        let dur = traj.duration_s().max(1.0);
        traj.points
            .iter()
            .map(|p| {
                [(p.pos.x - self.bbox.min.x) / w, (p.pos.y - self.bbox.min.y) / h, (p.t - t0) / dur]
            })
            .collect()
    }

    /// Runs the encoder, returning the final hidden state node.
    fn encode(&self, g: &mut Graph, traj: &Trajectory) -> NodeId {
        let feats = self.norm_features(traj);
        let mut h = g.input(Matrix::zeros(1, self.cfg.d_model));
        for f in feats {
            let x = g.input(Matrix::row_vec(f.to_vec()));
            let xp = self.in_proj.forward(g, x);
            h = self.encoder.step(g, xp, h);
        }
        h
    }

    /// One decoder step given the previous point; returns `(h', h'-node)`.
    fn decode_step(
        &self,
        g: &mut Graph,
        h: NodeId,
        prev_seg: SegmentId,
        prev_ratio: f64,
    ) -> NodeId {
        let emb = self.seg_table.embed(g, &[prev_seg.idx()]);
        let ratio = g.input(Matrix::row_vec(vec![prev_ratio]));
        let cat = g.concat_cols(&[emb, ratio]);
        let x = self.dec_in.forward(g, cat);
        self.decoder.step(g, x, h)
    }

    /// Trains with teacher forcing, one Adam step per trajectory.
    pub fn train(&mut self, samples: &[Sample], epochs: usize) -> TrainReport {
        let mut opt = Adam::new(self.params.clone(), self.cfg.lr);
        let mut report = TrainReport::default();
        for _epoch in 0..epochs {
            let started = Instant::now();
            let mut loss_sum = 0.0;
            let mut count = 0usize;
            for s in samples {
                if s.dense_truth.len() < 2 {
                    continue;
                }
                let mut g = Graph::new();
                let mut h = self.encode(&mut g, &s.sparse);
                let mut hidden_rows = Vec::new();
                let mut targets = Vec::new();
                let mut ratio_targets = Vec::new();
                // Teacher forcing along the dense ground truth.
                for w in s.dense_truth.points.windows(2) {
                    let (prev, cur) = (&w[0], &w[1]);
                    h = self.decode_step(&mut g, h, prev.seg, prev.ratio);
                    hidden_rows.push(h);
                    targets.push(cur.seg.idx());
                    ratio_targets.push(cur.ratio);
                }
                let hs = g.concat_rows(&hidden_rows);
                let logits = self.seg_head.forward(&mut g, hs);
                let seg_loss = g.softmax_cross_entropy(logits, &targets);
                let ratio_pre = self.ratio_head.forward(&mut g, hs);
                let ratio_pred = g.sigmoid(ratio_pre);
                let ratio_loss =
                    g.l1_loss(ratio_pred, Matrix::from_vec(ratio_targets.len(), 1, ratio_targets));
                let scaled = g.scale(ratio_loss, self.cfg.lambda_ratio);
                let loss = g.add(seg_loss, scaled);
                opt.zero_grad();
                g.backward(loss);
                opt.step();
                loss_sum += g.value(loss).get(0, 0);
                count += 1;
            }
            report.epoch_losses.push(loss_sum / count.max(1) as f64);
            report.epoch_times_s.push(started.elapsed().as_secs_f64());
        }
        report
    }
}

impl TrajectoryRecovery for Seq2SeqFull {
    fn name(&self) -> &'static str {
        "Seq2SeqFull"
    }

    fn recover(&self, traj: &Trajectory, epsilon_s: f64) -> MatchedTrajectory {
        if traj.is_empty() {
            return MatchedTrajectory::default();
        }
        let mut g = Graph::new();
        let mut h = self.encode(&mut g, traj);
        let first = traj.points[0];
        let init = self.finder.nearest(first.pos).expect("non-empty network");
        let mut prev = MatchedPoint::new(init.seg, init.ratio, first.t);
        let mut out = vec![prev];
        let t_end = traj.points.last().expect("non-empty").t;
        let steps = epsilon_ticks(t_end - first.t, epsilon_s);
        for j in 1..=steps {
            h = self.decode_step(&mut g, h, prev.seg, prev.ratio);
            let logits = self.seg_head.forward(&mut g, h);
            let row = g.value(logits).row(0);
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            let ratio_pre = self.ratio_head.forward(&mut g, h);
            let ratio_node = g.sigmoid(ratio_pre);
            let ratio = g.value(ratio_node).get(0, 0);
            prev = MatchedPoint::new(SegmentId(best as u32), ratio, first.t + j as f64 * epsilon_s);
            out.push(prev);
        }
        MatchedTrajectory::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_roadnet::{generate_city, NetworkConfig};
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};

    #[test]
    fn output_grid_and_shapes() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let cfg = Seq2SeqConfig { d_model: 16, d_emb: 8, ..Seq2SeqConfig::default() };
        let model = Seq2SeqFull::new(Arc::new(ds.net.clone()), cfg);
        let s = &ds.samples(Split::Test, 0.2, 3)[0];
        // Untrained model must still produce a well-formed ε-trajectory.
        let rec = model.recover(&s.sparse, ds.epsilon_s);
        assert!(rec.len() >= 2);
        assert!(rec.satisfies_epsilon(ds.epsilon_s, 1e-6));
        for p in &rec.points {
            assert!((0.0..=1.0).contains(&p.ratio));
            assert!(p.seg.idx() < model.network().num_segments());
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let cfg = Seq2SeqConfig { d_model: 16, d_emb: 8, ..Seq2SeqConfig::default() };
        let mut model = Seq2SeqFull::new(Arc::new(ds.net.clone()), cfg);
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 4).into_iter().take(8).collect();
        let report = model.train(&train, 3);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "loss should drop: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn unusable_epsilon_is_rejected_by_name() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let cfg = Seq2SeqConfig { d_model: 16, d_emb: 8, ..Seq2SeqConfig::default() };
        let model = Seq2SeqFull::new(Arc::new(ds.net.clone()), cfg);
        let s = &ds.samples(Split::Test, 0.2, 3)[0];
        crate::test_support::assert_rejects_unusable_epsilon(&model, &s.sparse);
    }

    #[test]
    fn weight_count_scales_with_network() {
        let small = Seq2SeqFull::new(
            Arc::new(generate_city(&NetworkConfig::with_size(4, 4, 71))),
            Seq2SeqConfig { d_model: 16, d_emb: 8, ..Seq2SeqConfig::default() },
        );
        let large = Seq2SeqFull::new(
            Arc::new(generate_city(&NetworkConfig::with_size(10, 10, 71))),
            Seq2SeqConfig { d_model: 16, d_emb: 8, ..Seq2SeqConfig::default() },
        );
        assert!(large.num_weights() > 2 * small.num_weights(), "the |E|-wide head must dominate");
    }
}
