//! MMA: map matching as classification over a small candidate set (§IV).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use trmma_baselines::TrainReport;
use trmma_geom::{cosine_similarity, BBox, Vec2};
use trmma_nn::{Adam, Graph, Linear, Matrix, Mlp, NodeId, Param, TransformerEncoder};
use trmma_roadnet::{RoadNetwork, RoutePlanner};
use trmma_traj::api::{
    stitch_route, Candidate, CandidateFinder, CandidateScratch, MapMatcher, MatchResult,
    ScratchMatcher,
};
use trmma_traj::online::{OnlineMatcher, OnlineUpdate};
use trmma_traj::snapshot::{self, Reader, SnapshotError};
use trmma_traj::types::{GpsPoint, MatchedPoint, Trajectory};
use trmma_traj::Sample;

/// Reusable per-worker inference state for [`Mma`]: the autograd tape, the
/// candidate-search buffers, per-trajectory candidate-set rows and the
/// per-point staging buffers of the forward pass. One instance serves any
/// number of trajectories; the batch engine keeps one per worker thread.
#[derive(Default)]
pub struct MmaScratch {
    graph: Graph,
    cand: CandidateScratch,
    /// Scratch-owned candidate rows for the offline decode, cleared and
    /// refilled per trajectory with their capacity kept.
    cand_sets: Vec<Vec<Candidate>>,
    bufs: MmaBufs,
}

impl MmaScratch {
    /// Empty scratch state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap allocations the scratch's reusable rows and staging buffers
    /// have absorbed so far.
    #[must_use]
    pub fn allocs_avoided(&self) -> u64 {
        self.bufs.reused
    }
}

/// Per-point staging buffers of [`Mma::forward_cached`]: the candidate-id
/// row, the flat direction-feature row and the all-zero repeat-gather index
/// row are rebuilt in place per point instead of allocated. (Tape-node
/// storage itself is deliberately *not* pooled — a matrix pool here was
/// measured slower than the allocator, DESIGN.md §3.)
#[derive(Default)]
struct MmaBufs {
    ids: Vec<usize>,
    rep0: Vec<usize>,
    /// Rebuilds that found the capacity already in place — the scratch's
    /// share of the avoided-allocation counters.
    reused: u64,
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

    /// Min-max normalised `[x, y, t]` features (Eq. 3's `z(0)`).
    fn norm_features(&self, traj: &Trajectory) -> Matrix {
        let w = (self.bbox.max.x - self.bbox.min.x).max(1.0);
        let h = (self.bbox.max.y - self.bbox.min.y).max(1.0);
        let t0 = traj.points.first().map_or(0.0, |p| p.t);
        let dur = traj.duration_s().max(1.0);
        let rows: Vec<Vec<f64>> = traj
            .points
            .iter()
            .map(|p| {
                vec![
                    (p.pos.x - self.bbox.min.x) / w,
                    (p.pos.y - self.bbox.min.y) / h,
                    (p.t - t0) / dur,
                ]
            })
            .collect();
        Matrix::from_rows(&rows)
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
        let logits = self.forward_cached(g, &mut MmaBufs::default(), &cand_sets, traj);
        cand_sets.into_iter().zip(logits).collect()
    }

    /// [`Mma::forward`] with the per-point candidate sets already known —
    /// the shape the online session uses: candidates are ranked once when a
    /// point is pushed and carried forward, so re-encoding a growing prefix
    /// never repeats a kNN search. Scores are identical either way
    /// (candidate search is a pure function of the point).
    fn forward_cached(
        &self,
        g: &mut Graph,
        bufs: &mut MmaBufs,
        cand_sets: &[Vec<Candidate>],
        traj: &Trajectory,
    ) -> Vec<NodeId> {
        assert_eq!(cand_sets.len(), traj.len(), "one candidate set per GPS point");
        if traj.is_empty() {
            return Vec::new();
        }
        // Eq. 3: point sequence encoding.
        let feats = g.input(self.norm_features(traj));
        let z1 = self.point_fc.forward(g, feats);
        let z2 = self.encoder.forward(g, z1); // ℓ × d2

        let mut out = Vec::with_capacity(traj.points.len());
        for (i, cands) in cand_sets.iter().enumerate() {
            let kc = cands.len();
            // Eq. 1–2: candidate embeddings. The id row is staged in the
            // scratch buffer — same slice content as a freshly collected
            // Vec, no allocation in steady state.
            if bufs.ids.capacity() >= kc {
                bufs.reused += 1;
            }
            bufs.ids.clear();
            bufs.ids.extend(cands.iter().map(|c| c.seg.idx()));
            let e_c = self.w_c.embed(g, &bufs.ids); // kc × d0
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
                // The repeat-gather index row is all zeros by definition;
                // the staged buffer only ever grows and is never written
                // with anything else.
                if bufs.rep0.len() < kc {
                    bufs.rep0.resize(kc, 0);
                } else {
                    bufs.reused += 1;
                }
                let z2_rep = g.gather_rows(z2_i, &bufs.rep0[..kc]); // kc × d2
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

    fn run_epoch(&self, samples: &[Sample], order: &[usize], opt: &mut Adam) -> f64 {
        let batch = self.cfg.batch_size.max(1);
        let mut loss_sum = 0.0;
        let mut count = 0usize;
        let mut in_batch = 0usize;
        opt.zero_grad();
        for &si in order {
            if let Some(loss) = self.sample_loss(&samples[si], true) {
                loss_sum += loss;
                count += 1;
                in_batch += 1;
                if in_batch == batch {
                    opt.step();
                    opt.zero_grad();
                    in_batch = 0;
                }
            }
        }
        if in_batch > 0 {
            opt.step();
            opt.zero_grad();
        }
        loss_sum / count.max(1) as f64
    }

    /// Mean BCE loss on held-out samples (no parameter updates).
    #[must_use]
    pub fn validation_loss(&self, samples: &[Sample]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for s in samples {
            if let Some(l) = self.sample_loss(s, false) {
                total += l;
                count += 1;
            }
        }
        total / count.max(1) as f64
    }

    /// Trains with the BCE objective of Eq. 10, one Adam step per
    /// `batch_size` trajectories; labels come from each sample's
    /// ground-truth matched points.
    pub fn train(&mut self, samples: &[Sample], epochs: usize) -> TrainReport {
        let mut opt = Adam::new(self.params.clone(), self.cfg.lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x51_7E);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut report = TrainReport::default();
        for _epoch in 0..epochs {
            let started = Instant::now();
            order.shuffle(&mut rng);
            let mean = self.run_epoch(samples, &order, &mut opt);
            report.epoch_losses.push(mean);
            report.epoch_times_s.push(started.elapsed().as_secs_f64());
        }
        report
    }

    /// Trains with validation-based early stopping: keeps the weights of
    /// the best validation epoch, stopping after `patience` epochs without
    /// improvement ("all methods are trained to converge" with a 30 %
    /// validation split, §VI-A).
    pub fn train_early_stop(
        &mut self,
        train: &[Sample],
        val: &[Sample],
        max_epochs: usize,
        patience: usize,
    ) -> TrainReport {
        let mut opt = Adam::new(self.params.clone(), self.cfg.lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x51_7E);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut report = TrainReport::default();
        let mut best = f64::INFINITY;
        let mut best_weights = trmma_nn::snapshot(&self.params);
        let mut bad = 0usize;
        for _epoch in 0..max_epochs {
            let started = Instant::now();
            order.shuffle(&mut rng);
            let mean = self.run_epoch(train, &order, &mut opt);
            report.epoch_losses.push(mean);
            report.epoch_times_s.push(started.elapsed().as_secs_f64());
            let vl = self.validation_loss(val);
            if vl < best {
                best = vl;
                best_weights = trmma_nn::snapshot(&self.params);
                bad = 0;
            } else {
                bad += 1;
                if bad > patience {
                    break;
                }
            }
        }
        trmma_nn::restore(&self.params, &best_weights);
        report
    }

    /// Serialises the trained weights (see [`trmma_nn::serialize`]).
    #[must_use]
    pub fn save_weights(&self) -> Vec<u8> {
        trmma_nn::save_params(&self.params).to_vec()
    }

    /// Loads weights produced by [`Mma::save_weights`] into a model of the
    /// same configuration.
    ///
    /// # Errors
    /// Fails (without modifying the model) on any header/shape mismatch.
    pub fn load_weights(&mut self, blob: &[u8]) -> Result<(), trmma_nn::LoadError> {
        trmma_nn::load_params(&self.params, blob)
    }

    /// Per-point matching without route stitching (Algorithm 1 lines 1–9).
    #[must_use]
    pub fn match_points(&self, traj: &Trajectory) -> Vec<MatchedPoint> {
        self.match_points_with(&mut MmaScratch::new(), traj)
    }

    /// [`Mma::match_points`] through caller-owned scratch state: the tape is
    /// reset (arena kept) instead of reallocated, and candidate search hits
    /// warm buffers. The batch engine's per-worker hot path.
    #[must_use]
    pub fn match_points_with(
        &self,
        scratch: &mut MmaScratch,
        traj: &Trajectory,
    ) -> Vec<MatchedPoint> {
        let MmaScratch { graph, cand, cand_sets, bufs } = scratch;
        // Refill the scratch-owned candidate rows in place: rows (and the
        // outer spine) keep their capacity from the previous trajectory, so
        // in steady state the whole search stage allocates nothing.
        bufs.reused += cand_sets.len().min(traj.len()) as u64;
        cand_sets.truncate(traj.len());
        while cand_sets.len() < traj.len() {
            cand_sets.push(Vec::with_capacity(self.cfg.kc));
        }
        for (p, row) in traj.points.iter().zip(cand_sets.iter_mut()) {
            self.finder.candidates_into(p.pos, cand, row);
        }
        self.decode_cached(graph, bufs, cand_sets, traj)
    }

    /// [`MapMatcher::match_trajectory`] through caller-owned scratch state.
    /// Bitwise-identical output to the trait method — the engine's
    /// determinism property test pins this down.
    #[must_use]
    pub fn match_trajectory_with(
        &self,
        scratch: &mut MmaScratch,
        traj: &Trajectory,
    ) -> MatchResult {
        let matched = self.match_points_with(scratch, traj);
        self.stitch(matched)
    }

    /// Per-point argmax over a prefix forward pass with cached candidate
    /// sets — the shared tail of the offline (freshly searched) and online
    /// (carried forward) decodes.
    fn match_points_cached(
        &self,
        scratch: &mut MmaScratch,
        cand_sets: &[Vec<Candidate>],
        traj: &Trajectory,
    ) -> Vec<MatchedPoint> {
        let MmaScratch { graph, bufs, .. } = scratch;
        self.decode_cached(graph, bufs, cand_sets, traj)
    }

    /// The decode core under both cached entry points, on disjoint borrows
    /// of the scratch so callers can pass scratch-owned candidate rows.
    /// Each logit column is a contiguous `kc × 1` buffer; the kernel argmax
    /// replays the strict-`>` first-max scan the loop here used to do.
    fn decode_cached(
        &self,
        graph: &mut Graph,
        bufs: &mut MmaBufs,
        cand_sets: &[Vec<Candidate>],
        traj: &Trajectory,
    ) -> Vec<MatchedPoint> {
        graph.reset();
        self.forward_cached(graph, bufs, cand_sets, traj)
            .into_iter()
            .zip(cand_sets)
            .zip(&traj.points)
            .map(|((logits, cands), p)| {
                let best = trmma_nn::kernels::argmax(graph.value(logits).data());
                MatchedPoint::new(cands[best].seg, cands[best].ratio, p.t)
            })
            .collect()
    }

    fn stitch(&self, matched: Vec<MatchedPoint>) -> MatchResult {
        stitch_route(&self.net, &self.planner, matched)
    }
}

impl MapMatcher for Mma {
    fn name(&self) -> &'static str {
        "MMA"
    }

    fn match_trajectory(&self, traj: &Trajectory) -> MatchResult {
        self.match_trajectory_with(&mut MmaScratch::new(), traj)
    }
}

/// Registers MMA with the pooled batch fan-out
/// (`trmma_core::batch::par_match_pooled`), the same per-worker-scratch
/// surface the baseline matchers expose.
impl ScratchMatcher for Mma {
    type Scratch = MmaScratch;

    fn make_scratch(&self) -> MmaScratch {
        MmaScratch::new()
    }

    fn scratch_stats(scratch: &MmaScratch) -> trmma_traj::ScratchStats {
        trmma_traj::ScratchStats { allocs_avoided: scratch.allocs_avoided() }
    }

    fn match_trajectory_with(&self, scratch: &mut MmaScratch, traj: &Trajectory) -> MatchResult {
        Mma::match_trajectory_with(self, scratch, traj)
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

impl MmaSession {
    /// Points pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traj.len()
    }

    /// Whether any point has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traj.is_empty()
    }
}

/// MMA as an online decoder. Unlike the HMM family, MMA's transformer
/// attends over the *whole* point sequence (Eq. 3) and its features are
/// normalised by the trajectory's full extent, so every new point can in
/// principle revise every earlier match: each push re-encodes the prefix
/// (with cached candidate sets) to produce the provisional match, and the
/// stabilized-prefix watermark honestly stays at 0 until `finalize` — the
/// watermark is a per-decoder *guarantee*, not a fixed schedule.
impl OnlineMatcher for Mma {
    type Session = MmaSession;

    fn begin_session(&self) -> MmaSession {
        MmaSession::default()
    }

    fn push_point(
        &self,
        scratch: &mut MmaScratch,
        session: &mut MmaSession,
        point: GpsPoint,
    ) -> OnlineUpdate {
        let mut cands = Vec::with_capacity(self.cfg.kc);
        self.finder.candidates_into(point.pos, &mut scratch.cand, &mut cands);
        session.traj.points.push(point);
        session.cand_sets.push(cands);
        let matched = self.match_points_cached(scratch, &session.cand_sets, &session.traj);
        OnlineUpdate { provisional: matched.last().copied(), stable_prefix: 0 }
    }

    fn finalize(&self, scratch: &mut MmaScratch, session: MmaSession) -> MatchResult {
        let matched = self.match_points_cached(scratch, &session.cand_sets, &session.traj);
        self.stitch(matched)
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
        r.expect_end()?;
        Ok(MmaSession { traj, cand_sets })
    }
}

/// A cheaply cloneable handle making a shared model usable as a matcher:
/// one trained [`Mma`] behind an `Arc` can be wired into a
/// [`crate::TrmmaPipeline`] *and* a [`crate::BatchRecovery`] simultaneously
/// without duplicating weights.
#[derive(Clone)]
pub struct SharedMma(pub Arc<Mma>);

impl MapMatcher for SharedMma {
    fn name(&self) -> &'static str {
        "MMA"
    }

    fn match_trajectory(&self, traj: &Trajectory) -> MatchResult {
        self.0.match_trajectory(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn node2vec_init_is_accepted() {
        let (net, planner, _) = setup();
        let cfg = MmaConfig::small();
        let emb = Matrix::zeros(net.num_segments(), cfg.d0);
        let mma = Mma::new(net, planner, Some(emb), cfg);
        assert!(mma.num_weights() > 0);
    }
}
