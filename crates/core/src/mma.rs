//! MMA: map matching as classification over a small candidate set (§IV).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trmma_geom::{cosine_similarity, BBox, Vec2};
use trmma_nn::kernels::{
    argmax, matvec_skip_zero, relu_in_place, softmax_in_place, vecmat_skip_zero,
};
use trmma_nn::EncoderScratch;
use trmma_nn::{Graph, Linear, Matrix, Mlp, NodeId, Param, TrainReport, TransformerEncoder};
use trmma_roadnet::{RoadNetwork, RoutePlanner};
use trmma_traj::api::{stitch_route, Candidate, CandidateFinder, CandidateScratch, MatchResult};
use trmma_traj::online::{OnlineMatcher, OnlineUpdate};
use trmma_traj::snapshot::{self, Reader, SnapshotError};
use trmma_traj::types::{GpsPoint, MatchedPoint, Trajectory};
use trmma_traj::Sample;

/// Reusable per-worker inference state for [`Mma`]: the candidate-search
/// buffers, the candidate rows and spines it lends sessions, and the flat
/// workspace of the forward-only scorer (which includes the encoder's,
/// positional rows and all). Nothing in it is a tape — inference records
/// nothing. One instance serves any number of trajectories of any length;
/// the batch and streaming engines keep one per worker thread.
#[derive(Default)]
pub struct MmaScratch {
    cand: CandidateScratch,
    /// Candidate rows lent to sessions, one per pushed point, and taken
    /// back at finalize with their capacity kept — at most one
    /// trajectory's worth, however sessions spread over workers.
    rows: Vec<Vec<Candidate>>,
    /// The last finalized session, emptied: its point and row spines go to
    /// the next session's first point.
    spare: MmaSession,
    /// Candidate rows served from `rows` instead of the allocator.
    reused: u64,
    ws: MmaWorkspace,
}

impl MmaScratch {
    /// Empty scratch state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap allocations the lent candidate rows have absorbed so far (the
    /// workspace's buffers are not counted: they replace tape nodes that no
    /// longer exist).
    #[must_use]
    pub fn allocs_avoided(&self) -> u64 {
        self.reused
    }
}

/// The buffers of [`Mma::score_cached`], each sized by the trajectory in
/// hand and kept between trajectories. Candidate-major buffers hold the
/// rows of all points back to back (`n = Σ kc_i` rows).
#[derive(Default)]
struct MmaWorkspace {
    enc: EncoderScratch,
    /// `z(0)`, `ℓ × 3`.
    feats: Vec<f64>,
    /// `z(1)`, `ℓ × d2`.
    z1: Vec<f64>,
    /// Eq. 2's input `[W_C[seg] | features]`, `n × (d0 + 5)`, and its
    /// hidden layer, `n × d1`.
    zc: Vec<f64>,
    cand_hidden: Vec<f64>,
    /// Candidate embeddings, `n × d2`.
    c_emb: Vec<f64>,
    /// Eq. 7's point-side prefix `z2 · W_7[0..d2]`, `ℓ × d3`.
    prefix: Vec<f64>,
    /// Eq. 7's hidden layer, `n × d3`.
    attn_hidden: Vec<f64>,
    /// Eq. 7's scores, then (in place, per point) their softmax `α`.
    alpha: Vec<f64>,
    /// `p_i` of Eq. 8.
    p: Vec<f64>,
    /// Eq. 9's logits `c_j · p_i`, `n`.
    logits: Vec<f64>,
}

/// Hyper-parameters of MMA (§VI-A lists the paper's settings; defaults
/// follow them with the FFN width scaled to the synthetic data size).
#[derive(Debug, Clone)]
pub struct MmaConfig {
    /// Candidate-set size `kc` (paper: 10, from the Fig. 2 analysis).
    pub kc: usize,
    /// Segment-embedding width `d0` (Eq. 1; paper: 64).
    pub d0: usize,
    /// Candidate-MLP hidden width `d1` (Eq. 2; paper: 128).
    pub d1: usize,
    /// Embedding width `d2` shared by points and candidates (paper: 64).
    pub d2: usize,
    /// Attention-MLP hidden width `d3` (Eq. 7; paper: 256).
    pub d3: usize,
    /// Transformer depth (paper: 2) and heads (paper: 4).
    pub n_layers: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Transformer FFN width.
    pub ffn: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f64,
    /// Trajectories per optimiser step (gradient accumulation; the paper
    /// uses batched training). Adam's scale invariance makes accumulation
    /// equivalent to averaging.
    pub batch_size: usize,
    /// Init/shuffle seed.
    pub seed: u64,
    /// Ablation `TRMMA-C`: drop the candidate-context term of Eq. 8.
    pub use_candidate_context: bool,
    /// Ablation `TRMMA-DI`: zero the four directional cosines of Eq. 2.
    pub use_direction: bool,
    /// Include the normalised perpendicular distance as a fifth candidate
    /// feature. The paper's Eq. 2 uses only the four cosines — its corpora
    /// are large enough for the id embeddings to encode geometry — but at
    /// laptop-scale training the model cannot relearn the quantity §IV-A
    /// itself ranks candidates by, so we feed it explicitly (documented
    /// substitution, DESIGN.md §1).
    pub use_distance: bool,
}

impl Default for MmaConfig {
    fn default() -> Self {
        Self {
            kc: 10,
            d0: 64,
            d1: 128,
            d2: 64,
            d3: 128,
            n_layers: 2,
            n_heads: 4,
            ffn: 128,
            lr: 1e-3,
            batch_size: 8,
            seed: 17,
            use_candidate_context: true,
            use_direction: true,
            use_distance: true,
        }
    }
}

impl MmaConfig {
    /// A small configuration for tests and quick examples.
    #[must_use]
    pub fn small() -> Self {
        Self { d0: 24, d1: 32, d2: 24, d3: 32, ffn: 48, n_heads: 2, ..Self::default() }
    }
}

/// The MMA map matcher (Algorithm 1). See crate docs.
pub struct Mma {
    net: Arc<RoadNetwork>,
    planner: Arc<RoutePlanner>,
    finder: CandidateFinder,
    bbox: BBox,
    cfg: MmaConfig,
    /// `W_C` of Eq. 1 — segment id embedding table, Node2Vec-initialised.
    w_c: Linear,
    /// The MLP of Eq. 2.
    cand_mlp: Mlp,
    /// `W_3, b_3` — GPS feature projection.
    point_fc: Linear,
    /// The transformer of Eq. 3.
    encoder: TransformerEncoder,
    /// The attention MLP of Eq. 7.
    attn_mlp: Mlp,
    params: Vec<Param>,
}

impl Mma {
    /// Builds MMA over `net`. When `node2vec` is given (an
    /// `n × d0` matrix) the candidate table `W_C` is initialised from it per
    /// Eq. 1; otherwise Xavier initialisation is used.
    ///
    /// # Panics
    /// Panics if `node2vec` has the wrong shape.
    #[must_use]
    pub fn new(
        net: Arc<RoadNetwork>,
        planner: Arc<RoutePlanner>,
        node2vec: Option<Matrix>,
        cfg: MmaConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = net.num_segments();
        let w_c = match node2vec {
            Some(m) => {
                assert_eq!(m.shape(), (n, cfg.d0), "node2vec shape must be n × d0");
                Linear::from_weights(m)
            }
            None => Linear::new_no_bias(n, cfg.d0, &mut rng),
        };
        let cand_mlp = Mlp::new(cfg.d0 + 5, cfg.d1, cfg.d2, &mut rng);
        let point_fc = Linear::new(3, cfg.d2, &mut rng);
        let encoder = TransformerEncoder::new(cfg.d2, cfg.n_heads, cfg.ffn, cfg.n_layers, &mut rng);
        let attn_mlp = Mlp::new(2 * cfg.d2, cfg.d3, 1, &mut rng);
        let mut params = Vec::new();
        params.extend(w_c.params());
        params.extend(cand_mlp.params());
        params.extend(point_fc.params());
        params.extend(encoder.params());
        params.extend(attn_mlp.params());
        let finder = CandidateFinder::new(&net, cfg.kc);
        let bbox = net.bbox();
        Self { net, planner, finder, bbox, cfg, w_c, cand_mlp, point_fc, encoder, attn_mlp, params }
    }

    /// Builds MMA on a sharded network: weights are initialised exactly as
    /// [`Mma::new`] over the underlying whole network (the RNG draws are
    /// untouched by the finder swap, so all layers are bitwise-identical),
    /// while candidate search merges the per-shard R-trees. Route stitching
    /// stays on the global planner.
    ///
    /// # Panics
    /// Panics if `node2vec` has the wrong shape.
    #[must_use]
    pub fn sharded(
        sharded: Arc<trmma_roadnet::ShardedNetwork>,
        planner: Arc<RoutePlanner>,
        node2vec: Option<Matrix>,
        cfg: MmaConfig,
    ) -> Self {
        let mut mma = Self::new(Arc::clone(sharded.net()), planner, node2vec, cfg);
        mma.finder = CandidateFinder::sharded(sharded, mma.cfg.kc);
        mma
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MmaConfig {
        &self.cfg
    }

    /// Total scalar weights.
    #[must_use]
    pub fn num_weights(&self) -> usize {
        trmma_nn::param::total_weights(&self.params)
    }

    /// The candidate finder (shared with analyses such as Fig. 2).
    #[must_use]
    pub fn finder(&self) -> &CandidateFinder {
        &self.finder
    }

    /// Min-max normalised `[x, y, t]` features (Eq. 3's `z(0)`), `ℓ × 3`
    /// row-major into `out` (cleared first).
    fn norm_features_into(&self, traj: &Trajectory, out: &mut Vec<f64>) {
        let w = (self.bbox.max.x - self.bbox.min.x).max(1.0);
        let h = (self.bbox.max.y - self.bbox.min.y).max(1.0);
        let t0 = traj.points.first().map_or(0.0, |p| p.t);
        let dur = traj.duration_s().max(1.0);
        out.clear();
        for p in &traj.points {
            out.extend_from_slice(&[
                (p.pos.x - self.bbox.min.x) / w,
                (p.pos.y - self.bbox.min.y) / h,
                (p.t - t0) / dur,
            ]);
        }
    }

    /// The four directional cosine features of Eq. 2 for candidate `c` of
    /// point `i`, plus the normalised perpendicular distance (see
    /// [`MmaConfig::use_distance`]).
    fn candidate_features(&self, traj: &Trajectory, i: usize, c: &Candidate) -> [f64; 5] {
        let dist = if self.cfg.use_distance { (c.dist_m / 30.0).min(4.0) } else { 0.0 };
        if !self.cfg.use_direction {
            return [0.0, 0.0, 0.0, 0.0, dist];
        }
        let seg = self.net.segment(c.seg);
        let dir = seg.line.direction();
        let p = traj.points[i].pos;
        let to_p = p - seg.line.a;
        let to_exit = seg.line.b - p;
        let from_prev = if i > 0 { p - traj.points[i - 1].pos } else { Vec2::default() };
        let to_next =
            if i + 1 < traj.points.len() { traj.points[i + 1].pos - p } else { Vec2::default() };
        [
            cosine_similarity(dir, to_p),
            cosine_similarity(dir, to_exit),
            cosine_similarity(dir, from_prev),
            cosine_similarity(dir, to_next),
            dist,
        ]
    }

    /// Forward pass over one trajectory: per point, the candidate set and
    /// the `kc × 1` logit column (`c_j · p_i` of Eq. 9). Candidate search
    /// runs through `cand` so callers can reuse its buffers across calls.
    fn forward(
        &self,
        g: &mut Graph,
        cand: &mut CandidateScratch,
        traj: &Trajectory,
    ) -> Vec<(Vec<Candidate>, NodeId)> {
        let mut cand_sets = Vec::with_capacity(traj.len());
        for p in &traj.points {
            let mut cands = Vec::with_capacity(self.cfg.kc);
            self.finder.candidates_into(p.pos, cand, &mut cands);
            cand_sets.push(cands);
        }
        let logits = self.forward_cached(g, &cand_sets, traj);
        cand_sets.into_iter().zip(logits).collect()
    }

    /// [`Mma::forward`] with the per-point candidate sets already known.
    /// Training's forward pass, and the definition inference's
    /// [`Mma::score_cached`] replays off the tape.
    fn forward_cached(
        &self,
        g: &mut Graph,
        cand_sets: &[Vec<Candidate>],
        traj: &Trajectory,
    ) -> Vec<NodeId> {
        assert_eq!(cand_sets.len(), traj.len(), "one candidate set per GPS point");
        if traj.is_empty() {
            return Vec::new();
        }
        // Eq. 3: point sequence encoding.
        let mut feats = Vec::new();
        self.norm_features_into(traj, &mut feats);
        let feats = g.input(Matrix::from_vec(traj.len(), 3, feats));
        let z1 = self.point_fc.forward(g, feats);
        let z2 = self.encoder.forward(g, z1); // ℓ × d2

        let mut out = Vec::with_capacity(traj.points.len());
        for (i, cands) in cand_sets.iter().enumerate() {
            // Eq. 1–2: candidate embeddings.
            let ids: Vec<usize> = cands.iter().map(|c| c.seg.idx()).collect();
            let e_c = self.w_c.embed(g, &ids); // kc × d0
            let mut dir_flat = Vec::with_capacity(cands.len() * 5);
            for c in cands {
                dir_flat.extend_from_slice(&self.candidate_features(traj, i, c));
            }
            let dirs = g.input(Matrix::from_vec(cands.len(), 5, dir_flat)); // kc × 5
            let z_c = g.concat_cols(&[e_c, dirs]);
            let c_emb = self.cand_mlp.forward(g, z_c); // kc × d2

            // Eq. 7–8: candidate-context attention into the point embedding.
            let z2_i = g.slice_rows(z2, i, 1); // 1 × d2
            let p_i = if self.cfg.use_candidate_context {
                let z2_rep = g.gather_rows(z2_i, &vec![0; cands.len()]); // kc × d2
                let cat = g.concat_cols(&[z2_rep, c_emb]);
                let scores = self.attn_mlp.forward(g, cat); // kc × 1
                let scores_row = g.transpose(scores); // 1 × kc
                let alpha = g.softmax_rows(scores_row); // 1 × kc
                let ctx = g.matmul(alpha, c_emb); // 1 × d2
                g.add(z2_i, ctx)
            } else {
                z2_i
            };

            // Eq. 9 logits: c_j · p_i for every candidate.
            let p_col = g.transpose(p_i); // d2 × 1
            let logits = g.matmul(c_emb, p_col); // kc × 1
            out.push(logits);
        }
        out
    }

    /// Forward pass plus BCE loss (Eq. 10) for one sample. Gradients are
    /// accumulated when `backward` is set; `None` for empty trajectories.
    fn sample_loss(&self, s: &Sample, backward: bool) -> Option<f64> {
        if s.sparse.is_empty() {
            return None;
        }
        let mut g = Graph::new();
        let mut cand = CandidateScratch::new();
        let per_point = self.forward(&mut g, &mut cand, &s.sparse);
        let mut logit_cols = Vec::new();
        let mut labels = Vec::new();
        for ((cands, logits), truth) in per_point.iter().zip(&s.sparse_truth) {
            logit_cols.push(*logits);
            for c in cands {
                labels.push(if c.seg == truth.seg { 1.0 } else { 0.0 });
            }
        }
        let all_logits = g.concat_rows(&logit_cols);
        let target = Matrix::from_vec(labels.len(), 1, labels);
        let loss = g.bce_with_logits(all_logits, target);
        if backward {
            g.backward(loss);
        }
        Some(g.value(loss).get(0, 0))
    }

    /// Mean BCE loss on held-out samples, forward only (gradients gathered
    /// so far are left alone); NaN when no sample is usable.
    #[must_use]
    pub fn validation_loss(&self, samples: &[Sample]) -> f64 {
        trmma_nn::train::validation_loss(samples, |s, backward| self.sample_loss(s, backward))
            .unwrap_or(f64::NAN)
    }

    /// Trains with the BCE objective of Eq. 10, one Adam step per
    /// `batch_size` trajectories; labels come from each sample's
    /// ground-truth matched points. Every call reshuffles from the
    /// config's seed with a fresh optimiser, so `train(s, k)` is exactly
    /// the first `k` epochs of any longer run.
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
        let (lr, batch, seed) = (self.cfg.lr, self.cfg.batch_size, self.cfg.seed ^ 0x51_7E);
        let loss = |s: &Sample, backward| self.sample_loss(s, backward);
        trmma_nn::train::fit(&self.params, loss, train, early_stop, epochs, lr, batch, seed)
    }

    /// Serialises the trained weights as a TNN1 blob (`weights.rs`).
    #[must_use]
    pub fn save_weights(&self) -> Vec<u8> {
        crate::weights::save_params(&self.params)
    }

    /// Loads weights produced by [`Mma::save_weights`] into a model of the
    /// same configuration.
    ///
    /// # Errors
    /// Fails (without modifying the model) on any header, count or shape
    /// mismatch and on trailing bytes.
    pub fn load_weights(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        crate::weights::load_params(&self.params, blob)
    }

    /// Per-point matching without route stitching (Algorithm 1 lines 1–9).
    #[must_use]
    pub fn match_points(&self, traj: &Trajectory) -> Vec<MatchedPoint> {
        self.match_points_with(&mut MmaScratch::new(), traj)
    }

    /// [`Mma::match_points`] through caller-owned scratch state:
    /// `begin_session` → `advance`* → one decode, the offline decode
    /// without its route stitch. Candidate search hits warm buffers, rows
    /// come from the scratch, and the scorer runs forward-only on the
    /// scratch's flat workspace — no tape, no allocation in steady state,
    /// every `Param` read lock taken a constant number of times per
    /// trajectory. The matches are bit for bit what the tape forward
    /// (`Mma::forward`, which training differentiates) scores (DESIGN.md
    /// §15).
    ///
    /// # Panics
    /// Panics naming the first point whose x, y or t is not finite.
    #[must_use]
    pub fn match_points_with(
        &self,
        scratch: &mut MmaScratch,
        traj: &Trajectory,
    ) -> Vec<MatchedPoint> {
        let session = self.replay(scratch, traj);
        self.decode_session(scratch, session)
    }

    /// Decodes every point of `session`, then takes its rows and spines
    /// back into `scratch`.
    fn decode_session(
        &self,
        scratch: &mut MmaScratch,
        mut session: MmaSession,
    ) -> Vec<MatchedPoint> {
        let matched = self.decode_cached(&mut scratch.ws, &session.cand_sets, &session.traj);
        let room = session.cand_sets.len().saturating_sub(scratch.rows.len());
        scratch.rows.extend(session.cand_sets.drain(..room));
        session.cand_sets.clear();
        session.traj.points.clear();
        scratch.spare = session;
        matched
    }

    /// [`Mma::forward_cached`] off the tape: leaves in `ws.logits` every
    /// point's logit column (Eq. 9), back to back in point order, each bit
    /// the tape's. The whole trajectory goes through each layer as one
    /// batch — rows of a `Linear` are independent — so weights are read in
    /// place under a constant number of read locks, and Eq. 7's first layer
    /// shares what the tape cannot: its input is `[z2_i repeated | c_emb]`
    /// and an i-k-j product adds a row's terms left to right, so the `z2_i`
    /// part of every candidate row's sum is a prefix that depends on the
    /// point only — computed once per point and copied under each of its
    /// candidates, which then continue it with their own `c_emb` part.
    fn score_cached(&self, ws: &mut MmaWorkspace, cand_sets: &[Vec<Candidate>], traj: &Trajectory) {
        assert_eq!(cand_sets.len(), traj.len(), "one candidate set per GPS point");
        let MmaConfig { d0, d2, d3, .. } = self.cfg;
        let n: usize = cand_sets.iter().map(Vec::len).sum();
        ws.logits.clear();
        ws.logits.resize(n, 0.0);
        if n == 0 {
            return;
        }
        // Eq. 3: point sequence encoding.
        self.norm_features_into(traj, &mut ws.feats);
        self.point_fc.apply_rows(&ws.feats, &mut ws.z1);
        let z2 = self.encoder.forward_flat(&ws.z1, &mut ws.enc); // ℓ × d2

        // Eq. 1–2: candidate embeddings.
        let zc_cols = d0 + 5;
        ws.zc.clear();
        ws.zc.resize(n * zc_cols, 0.0);
        let segs = cand_sets.iter().flatten().map(|c| c.seg.idx());
        self.w_c.gather_rows_into(segs, zc_cols, &mut ws.zc);
        let mut rows = ws.zc.chunks_exact_mut(zc_cols);
        for (i, cands) in cand_sets.iter().enumerate() {
            for (c, row) in cands.iter().zip(&mut rows) {
                row[d0..].copy_from_slice(&self.candidate_features(traj, i, c));
            }
        }
        self.cand_mlp.apply_rows(&ws.zc, &mut ws.cand_hidden, &mut ws.c_emb); // n × d2

        // Eq. 7–8: candidate-context attention into the point embedding,
        // scored for all candidates of all points at once.
        if self.cfg.use_candidate_context {
            let [l1, l2] = self.attn_mlp.layers();
            ws.prefix.clear();
            ws.prefix.resize(traj.len() * d3, 0.0);
            l1.accumulate_rows(z2, 0, d2, &mut ws.prefix);
            ws.attn_hidden.clear();
            for (cands, prefix) in cand_sets.iter().zip(ws.prefix.chunks_exact(d3)) {
                for _ in cands {
                    ws.attn_hidden.extend_from_slice(prefix);
                }
            }
            l1.accumulate_rows(&ws.c_emb, d2, d2, &mut ws.attn_hidden);
            l1.add_bias_rows(&mut ws.attn_hidden);
            relu_in_place(&mut ws.attn_hidden);
            l2.apply_rows(&ws.attn_hidden, &mut ws.alpha); // n × 1
        }

        // Per point: softmax over its candidates, context, Eq. 9's logits
        // `c_j · p_i`.
        ws.p.clear();
        ws.p.resize(d2, 0.0);
        let mut at = 0;
        for (cands, z2_i) in cand_sets.iter().zip(z2.chunks_exact(d2)) {
            let these = at..at + cands.len();
            let c_emb = &ws.c_emb[these.start * d2..these.end * d2];
            if self.cfg.use_candidate_context {
                let alpha = &mut ws.alpha[these.clone()];
                softmax_in_place(alpha);
                ws.p.fill(0.0);
                vecmat_skip_zero(alpha, c_emb, &mut ws.p);
                for (ctx, &z) in ws.p.iter_mut().zip(z2_i) {
                    *ctx += z;
                }
            } else {
                ws.p.copy_from_slice(z2_i);
            }
            matvec_skip_zero(c_emb, &ws.p, &mut ws.logits[these]);
            at += cands.len();
        }
    }

    /// Per-point argmax over [`Mma::score_cached`]'s logits — the tail of
    /// every decode, provisional or final. First maximum wins, by strict
    /// `>`.
    fn decode_cached(
        &self,
        ws: &mut MmaWorkspace,
        cand_sets: &[Vec<Candidate>],
        traj: &Trajectory,
    ) -> Vec<MatchedPoint> {
        self.score_cached(ws, cand_sets, traj);
        let mut at = 0;
        cand_sets
            .iter()
            .zip(&traj.points)
            .map(|(cands, p)| {
                let best = argmax(&ws.logits[at..at + cands.len()]);
                at += cands.len();
                MatchedPoint::new(cands[best].seg, cands[best].ratio, p.t)
            })
            .collect()
    }
}

/// Per-session streaming state of MMA: the accumulated GPS prefix plus each
/// point's ranked candidate set, searched once at push time and carried
/// forward so neither the provisional re-encodes nor the final decode ever
/// repeat a kNN query.
#[derive(Debug, Clone, Default)]
pub struct MmaSession {
    traj: Trajectory,
    cand_sets: Vec<Vec<Candidate>>,
}

/// MMA as a resumable decoder. Unlike the HMM family, MMA's transformer
/// attends over the *whole* point sequence (Eq. 3) and its features are
/// normalised by the trajectory's full extent, so every new point can in
/// principle revise every earlier match: each `update` re-encodes the
/// prefix (with cached candidate sets) to produce the provisional match,
/// and the stabilized-prefix watermark honestly stays at 0 until
/// `finalize` — the watermark is a per-decoder *guarantee*, not a fixed
/// schedule. The offline decode advances without updating, so it scores
/// the trajectory once.
impl OnlineMatcher for Mma {
    const NAME: &'static str = "MMA";
    type Scratch = MmaScratch;
    type Session = MmaSession;

    fn make_scratch(&self) -> MmaScratch {
        MmaScratch::new()
    }

    fn allocs_avoided(scratch: &MmaScratch) -> u64 {
        scratch.allocs_avoided()
    }

    fn begin_session(&self) -> MmaSession {
        MmaSession::default()
    }

    fn advance(&self, scratch: &mut MmaScratch, session: &mut MmaSession, point: GpsPoint) {
        if session.traj.is_empty() {
            std::mem::swap(session, &mut scratch.spare);
        }
        let mut row = match scratch.rows.pop() {
            Some(row) => {
                scratch.reused += 1;
                row
            }
            None => Vec::with_capacity(self.cfg.kc),
        };
        self.finder.candidates_into(point.pos, &mut scratch.cand, &mut row);
        session.traj.points.push(point);
        session.cand_sets.push(row);
    }

    fn update(&self, scratch: &mut MmaScratch, session: &mut MmaSession) -> OnlineUpdate {
        let matched = self.decode_cached(&mut scratch.ws, &session.cand_sets, &session.traj);
        OnlineUpdate { provisional: matched.last().copied(), stable_prefix: 0 }
    }

    fn finalize(&self, scratch: &mut MmaScratch, session: MmaSession) -> MatchResult {
        let matched = self.decode_session(scratch, session);
        stitch_route(&self.net, &self.planner, matched)
    }

    fn session_len(&self, session: &MmaSession) -> usize {
        session.traj.len()
    }

    fn session_watermark(&self, _session: &MmaSession) -> usize {
        // Global attention: nothing stabilizes before finalize (see above).
        0
    }

    fn snapshot_session(&self, session: &MmaSession, out: &mut Vec<u8>) {
        snapshot::put_trajectory(out, &session.traj);
        snapshot::put_cand_sets(out, &session.cand_sets);
    }

    fn restore_session(&self, bytes: &[u8]) -> Result<MmaSession, SnapshotError> {
        let mut r = Reader::new(bytes);
        let traj = snapshot::read_trajectory(&mut r)?;
        let cand_sets = snapshot::read_cand_sets(&mut r)?;
        if cand_sets.len() != traj.len() {
            return Err(SnapshotError::Malformed("candidate layers != points"));
        }
        // The decoder indexes `W_C` by segment id and a layer by its argmax:
        // neither may be trusted from bytes that came from outside.
        let n_segs = self.net.num_segments();
        for layer in &cand_sets {
            if layer.is_empty() {
                return Err(SnapshotError::Malformed("empty candidate layer"));
            }
            if layer.iter().any(|c| c.seg.idx() >= n_segs) {
                return Err(SnapshotError::Malformed("candidate segment out of range"));
            }
        }
        r.expect_end()?;
        Ok(MmaSession { traj, cand_sets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_traj::api::MapMatcher;
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
    use trmma_traj::metrics::matching_metrics;

    fn setup() -> (Arc<RoadNetwork>, Arc<RoutePlanner>, trmma_traj::Dataset) {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        (net, planner, ds)
    }

    #[test]
    fn untrained_mma_produces_valid_output() {
        let (net, planner, ds) = setup();
        let mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
        let s = &ds.samples(Split::Test, 0.2, 1)[0];
        let res = mma.match_trajectory(&s.sparse);
        assert_eq!(res.matched.len(), s.sparse.len());
        assert!(res.route.is_valid(&net));
        for m in &res.matched {
            assert!((0.0..=1.0).contains(&m.ratio));
        }
    }

    #[test]
    fn training_reduces_bce_loss() {
        let (net, planner, ds) = setup();
        let mut mma = Mma::new(net, planner, None, MmaConfig::small());
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 2).into_iter().take(10).collect();
        let report = mma.train(&train, 4);
        assert!(report.final_loss() < report.epoch_losses[0], "{:?}", report.epoch_losses);
    }

    #[test]
    fn trained_mma_beats_untrained_on_point_accuracy() {
        let (net, planner, ds) = setup();
        let train = ds.samples(Split::Train, 0.2, 3);
        let test: Vec<_> = ds.samples(Split::Test, 0.2, 4).into_iter().take(6).collect();

        let acc = |m: &Mma| -> f64 {
            let mut hit = 0usize;
            let mut total = 0usize;
            for s in &test {
                for (mp, truth) in m.match_points(&s.sparse).iter().zip(&s.sparse_truth) {
                    hit += usize::from(mp.seg == truth.seg);
                    total += 1;
                }
            }
            hit as f64 / total.max(1) as f64
        };

        let untrained = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        let before = acc(&untrained);
        let mut trained = Mma::new(net, planner, None, MmaConfig::small());
        trained.train(&train, 10);
        let after = acc(&trained);
        assert!(
            after > before.max(0.4),
            "training must help: before {before:.3}, after {after:.3}"
        );
    }

    #[test]
    fn route_quality_reasonable_after_training() {
        let (net, planner, ds) = setup();
        let mut mma = Mma::new(net, planner, None, MmaConfig::small());
        mma.train(&ds.samples(Split::Train, 0.2, 3), 10);
        let test: Vec<_> = ds.samples(Split::Test, 0.2, 4).into_iter().take(6).collect();
        let mut f1 = 0.0;
        for s in &test {
            let res = mma.match_trajectory(&s.sparse);
            f1 += matching_metrics(&res.route, &s.route).f1;
        }
        let mean = f1 / test.len() as f64;
        assert!(mean > 0.5, "trained MMA route F1 too low: {mean:.3}");
    }

    #[test]
    fn ablation_flags_change_behaviour() {
        let (net, planner, ds) = setup();
        let s = &ds.samples(Split::Test, 0.2, 5)[0];
        let full = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        let no_ctx = Mma::new(
            net.clone(),
            planner.clone(),
            None,
            MmaConfig { use_candidate_context: false, ..MmaConfig::small() },
        );
        let no_dir =
            Mma::new(net, planner, None, MmaConfig { use_direction: false, ..MmaConfig::small() });
        // Same seeds → same init; disabled paths must change the scores of
        // at least one point.
        let a = full.match_points(&s.sparse);
        let b = no_ctx.match_points(&s.sparse);
        let c = no_dir.match_points(&s.sparse);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), c.len());
    }

    /// The tape's logit columns for known candidate sets, as bits.
    fn tape_logits(m: &Mma, cand_sets: &[Vec<Candidate>], traj: &Trajectory) -> Vec<Vec<u64>> {
        let mut g = Graph::new();
        m.forward_cached(&mut g, cand_sets, traj)
            .into_iter()
            .map(|col| g.value(col).data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Asserts the flat scorer's logits and matches equal the tape's on
    /// every bit, through `ws` as the previous call left it. Returns the
    /// number of points compared.
    fn assert_scores_match_tape(
        m: &Mma,
        ws: &mut MmaWorkspace,
        cand_sets: &[Vec<Candidate>],
        traj: &Trajectory,
        what: &str,
    ) -> usize {
        let want = tape_logits(m, cand_sets, traj);
        let matched = m.decode_cached(ws, cand_sets, traj);
        let got: Vec<u64> = ws.logits.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want.concat(), "{what}: logits");
        assert_eq!(matched.len(), traj.len(), "{what}");
        for ((mp, col), cands) in matched.iter().zip(&want).zip(cand_sets) {
            // The decode the tape-based path ran: strict-`>` first max.
            let mut best = 0;
            for (j, &b) in col.iter().enumerate() {
                if f64::from_bits(b) > f64::from_bits(col[best]) {
                    best = j;
                }
            }
            assert_eq!(
                (mp.seg, mp.ratio.to_bits()),
                (cands[best].seg, cands[best].ratio.to_bits())
            );
        }
        traj.len()
    }

    fn searched(m: &Mma, traj: &Trajectory) -> Vec<Vec<Candidate>> {
        let mut cand = CandidateScratch::new();
        traj.points
            .iter()
            .map(|p| {
                let mut row = Vec::new();
                m.finder.candidates_into(p.pos, &mut cand, &mut row);
                row
            })
            .collect()
    }

    #[test]
    fn flat_scorer_is_bitwise_the_tape_forward_on_a_seeded_sweep() {
        let (net, planner, ds) = setup();
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(3).collect();
        let odd = MmaConfig {
            d0: 10,
            d1: 17,
            d2: 20,
            d3: 13,
            ffn: 19,
            n_heads: 4,
            n_layers: 3,
            ..MmaConfig::small()
        };
        let configs = [
            ("small", MmaConfig::small()),
            ("odd widths", odd),
            ("no context", MmaConfig { use_candidate_context: false, ..MmaConfig::small() }),
            ("no direction", MmaConfig { use_direction: false, ..MmaConfig::small() }),
            ("no distance", MmaConfig { use_distance: false, ..MmaConfig::small() }),
        ];
        // One workspace for the whole sweep: dirty from another width,
        // another `kc` and another trajectory length at every call.
        let mut ws = MmaWorkspace::default();
        let mut points = 0usize;
        for (name, cfg) in configs {
            for kc in [1usize, 4, 10] {
                for trained in [false, true] {
                    let mut m = Mma::new(
                        net.clone(),
                        planner.clone(),
                        None,
                        MmaConfig { kc, ..cfg.clone() },
                    );
                    if trained {
                        m.train(&train, 1);
                    }
                    for (gi, gamma) in [0.1, 0.2, 0.5, 1.0].into_iter().enumerate() {
                        let samples = ds.samples(Split::Test, gamma, 40 + gi as u64);
                        let s = &samples[(kc + gi) % samples.len()];
                        let what = format!("{name} kc {kc} trained {trained} γ {gamma}");
                        let sets = searched(&m, &s.sparse);
                        points += assert_scores_match_tape(&m, &mut ws, &sets, &s.sparse, &what);
                        // A one-point trajectory: `ℓ = 1` attention.
                        let one = Trajectory { points: s.sparse.points[..1].to_vec() };
                        points += assert_scores_match_tape(&m, &mut ws, &sets[..1], &one, &what);
                        // Candidate layers of unequal length.
                        let mut ragged = sets.clone();
                        for (i, row) in ragged.iter_mut().enumerate() {
                            row.truncate(1 + (i * 3 + gi) % kc);
                        }
                        points += assert_scores_match_tape(&m, &mut ws, &ragged, &s.sparse, &what);
                    }
                }
            }
        }
        assert!(points > 500, "the sweep scored only {points} points");
        // No points: nothing scored, nothing matched.
        let m = Mma::new(net, planner, None, MmaConfig::small());
        assert!(m.decode_cached(&mut ws, &[], &Trajectory::default()).is_empty());
    }

    /// With finite weights a dropped `a == 0.0` skip cannot show (a sum
    /// that starts at `+0.0` never reaches `-0.0`). So: every weight gets
    /// exact zeros of both signs and whole zero columns (`c % 4 == 1`),
    /// which make exact zeros of `W_C`'s columns, both MLPs' ReLU outputs,
    /// `c_emb`'s and (through the last layer norm) `z2`'s columns; the
    /// weight rows those zeros multiply — and, with `use_direction` off,
    /// the four rows under the zeroed cosines — are `+inf`. The logits stay
    /// finite only if every skip the tape takes is taken, the hoisted
    /// prefix's included.
    #[test]
    fn flat_scorer_takes_every_zero_skip_the_tape_takes() {
        let (net, planner, ds) = setup();
        let mut ws = MmaWorkspace::default();
        for use_direction in [true, false] {
            for steep in [false, true] {
                let cfg = MmaConfig { use_direction, d3: 20, ..MmaConfig::small() };
                let (d0, d2) = (cfg.d0, cfg.d2);
                let m = Mma::new(net.clone(), planner.clone(), None, cfg);
                for p in &m.params {
                    let mut v = p.value();
                    let (rows, cols) = v.shape();
                    for r in 0..rows {
                        for c in 0..cols {
                            match (c % 4 == 1, (r * cols + c) % 7) {
                                (true, _) | (false, 0) => v.set(r, c, 0.0),
                                (false, 3) => v.set(r, c, -0.0),
                                _ => {}
                            }
                        }
                    }
                    p.set_value(v);
                }
                let poison = |lin: &Linear, hit: &dyn Fn(usize) -> bool| {
                    let mut v = lin.weight().value();
                    for r in (0..v.rows()).filter(|&r| hit(r)) {
                        v.row_mut(r).fill(f64::INFINITY);
                    }
                    lin.weight().set_value(v);
                };
                let [c1, c2] = m.cand_mlp.layers();
                poison(c1, &|r| if r < d0 { r % 4 == 1 } else { !use_direction && r < d0 + 4 });
                poison(c2, &|r| r % 4 == 1);
                let [a1, a2] = m.attn_mlp.layers();
                poison(a1, &|r| (r % d2) % 4 == 1);
                poison(a2, &|r| r % 4 == 1);
                if steep {
                    // Scores thousands apart: α underflows to exact zeros,
                    // the coefficients of the context `α · c_emb`.
                    a2.weight().set_value(a2.weight().value().map(|x| x * 1e6));
                }
                let what = format!("salted, direction {use_direction}, steep {steep}");
                for s in ds.samples(Split::Test, 0.2, 6).iter().take(3) {
                    let sets = searched(&m, &s.sparse);
                    let want = tape_logits(&m, &sets, &s.sparse).concat();
                    assert!(
                        want.iter().all(|&b| f64::from_bits(b).is_finite()),
                        "{what}: a poisoned row was not skipped on the tape"
                    );
                    assert_scores_match_tape(&m, &mut ws, &sets, &s.sparse, &what);
                    if steep {
                        assert!(ws.alpha.contains(&0.0), "{what}: α has no zero");
                    }
                }
            }
        }
    }

    #[test]
    fn dirty_scratch_and_online_pushes_decode_as_the_tape_does() {
        let (net, planner, ds) = setup();
        let mut m = Mma::new(net, planner, None, MmaConfig::small());
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 3).into_iter().take(4).collect();
        m.train(&train, 1);
        let tape_match = |traj: &Trajectory| -> Vec<(trmma_roadnet::SegmentId, u64)> {
            let sets = searched(&m, traj);
            let mut ws = MmaWorkspace::default();
            assert_scores_match_tape(&m, &mut ws, &sets, traj, "reference");
            let matched = m.decode_cached(&mut ws, &sets, traj);
            matched.iter().map(|p| (p.seg, p.ratio.to_bits())).collect()
        };
        let mut scratch = MmaScratch::new();
        let mut lens = std::collections::BTreeSet::new();
        for gamma in [0.5, 0.1, 1.0, 0.2] {
            for s in ds.samples(Split::Test, gamma, 9).iter().take(3) {
                lens.insert(s.sparse.len());
                // Offline through the reused scratch.
                let got: Vec<_> = m
                    .match_points_with(&mut scratch, &s.sparse)
                    .iter()
                    .map(|p| (p.seg, p.ratio.to_bits()))
                    .collect();
                assert_eq!(got, tape_match(&s.sparse), "γ {gamma}: offline");
                // Online through the same scratch: every provisional match
                // is the last match of the prefix decoded offline.
                let mut session = m.begin_session();
                for (i, &p) in s.sparse.points.iter().enumerate() {
                    let up = m.push_point(&mut scratch, &mut session, p);
                    let prefix = Trajectory { points: s.sparse.points[..=i].to_vec() };
                    let want = *tape_match(&prefix).last().unwrap();
                    let prov = up.provisional.unwrap();
                    assert_eq!((prov.seg, prov.ratio.to_bits()), want, "γ {gamma}: push {i}");
                }
                let fin = m.finalize(&mut scratch, session);
                assert_eq!(fin, m.match_trajectory(&s.sparse), "γ {gamma}: finalize");
            }
        }
        assert!(lens.len() > 2, "the scratch saw only lengths {lens:?}");
        assert!(scratch.allocs_avoided() > 0);
    }

    #[test]
    fn restore_rejects_candidates_the_decoder_cannot_index() {
        let (net, planner, ds) = setup();
        let m = Mma::new(net.clone(), planner, None, MmaConfig::small());
        let s = &ds.samples(Split::Test, 0.2, 1)[0];
        let mut scratch = MmaScratch::new();
        let mut session = m.begin_session();
        for &p in &s.sparse.points {
            m.push_point(&mut scratch, &mut session, p);
        }
        let encode = |sess: &MmaSession| {
            let mut bytes = Vec::new();
            m.snapshot_session(sess, &mut bytes);
            bytes
        };
        // A genuine snapshot round-trips to the bit.
        let genuine = encode(&session);
        let back = m.restore_session(&genuine).expect("genuine snapshot");
        assert_eq!(encode(&back), genuine);
        assert_eq!(m.finalize(&mut scratch, back), m.match_trajectory(&s.sparse));

        let mut bad_seg = session.clone();
        bad_seg.cand_sets[0][0].seg = trmma_roadnet::SegmentId((net.num_segments() + 7) as u32);
        assert_eq!(
            m.restore_session(&encode(&bad_seg)).err(),
            Some(SnapshotError::Malformed("candidate segment out of range"))
        );
        let mut emptied = session.clone();
        emptied.cand_sets.last_mut().unwrap().clear();
        assert_eq!(
            m.restore_session(&encode(&emptied)).err(),
            Some(SnapshotError::Malformed("empty candidate layer"))
        );
    }

    #[test]
    fn node2vec_init_is_accepted() {
        let (net, planner, _) = setup();
        let cfg = MmaConfig::small();
        let emb = Matrix::zeros(net.num_segments(), cfg.d0);
        let mma = Mma::new(net, planner, Some(emb), cfg);
        assert!(mma.num_weights() > 0);
    }
}
