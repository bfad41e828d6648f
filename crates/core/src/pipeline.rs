//! The end-to-end system: a map matcher feeding TRMMA (Algorithm 2 line 1).
//!
//! The default wiring is MMA → TRMMA; swapping the matcher yields the
//! `TRMMA-HMM` and `TRMMA-Near` ablations of Table IV without touching the
//! recovery model.

use trmma_traj::api::{MapMatcher, TrajectoryRecovery};
use trmma_traj::types::{MatchedTrajectory, Trajectory};

use crate::batch::{parallel_map, BatchOptions};
use crate::trmma::Trmma;

/// Map-match-then-recover pipeline; see module docs.
pub struct TrmmaPipeline {
    matcher: Box<dyn MapMatcher>,
    model: Trmma,
    name: &'static str,
}

impl TrmmaPipeline {
    /// Wires `matcher` into `model`. `name` labels the pipeline in tables
    /// ("TRMMA", "TRMMA-HMM", "TRMMA-Near", …).
    #[must_use]
    pub fn new(matcher: Box<dyn MapMatcher>, model: Trmma, name: &'static str) -> Self {
        Self { matcher, model, name }
    }

    /// The recovery model (e.g. for further training).
    #[must_use]
    pub fn model(&self) -> &Trmma {
        &self.model
    }

    /// Dismantles the pipeline into its matcher and recovery model — e.g.
    /// to rewrap a sequentially evaluated pipeline into the batch engine
    /// without retraining.
    #[must_use]
    pub fn into_parts(self) -> (Box<dyn MapMatcher>, Trmma) {
        (self.matcher, self.model)
    }

    /// The wired map matcher.
    #[must_use]
    pub fn matcher(&self) -> &dyn MapMatcher {
        self.matcher.as_ref()
    }

    /// Recovers a whole batch in parallel, sharing this pipeline read-only
    /// across workers and reusing one TRMMA `Graph` per worker (it carries
    /// each trajectory's decoder-weight bindings; the encoder and the
    /// per-point decode run off it, see
    /// [`Trmma::recover_from_match_with`]). Output `i` equals
    /// `self.recover(&batch[i], epsilon_s)`.
    ///
    /// For the MMA-matcher pipeline, [`crate::batch::BatchRecovery`] is the
    /// faster entry point (it also reuses the matcher's scratch); this
    /// method parallelises *any* matcher wiring, ablations included.
    #[must_use]
    pub fn recover_batch(
        &self,
        batch: &[Trajectory],
        epsilon_s: f64,
        opts: BatchOptions,
    ) -> Vec<MatchedTrajectory> {
        let threads = opts.effective_threads(batch.len());
        parallel_map(batch, threads, trmma_nn::Graph::new, |g, traj| {
            let result = self.matcher.match_trajectory(traj);
            self.model.recover_from_match_with(g, traj, &result.matched, &result.route, epsilon_s)
        })
    }
}

impl TrajectoryRecovery for TrmmaPipeline {
    fn name(&self) -> &'static str {
        self.name
    }

    fn recover(&self, traj: &Trajectory, epsilon_s: f64) -> MatchedTrajectory {
        let result = self.matcher.match_trajectory(traj);
        self.model.recover_from_match(traj, &result.matched, &result.route, epsilon_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mma::{Mma, MmaConfig};
    use crate::trmma::TrmmaConfig;
    use std::sync::Arc;
    use trmma_baselines::NearestMatcher;
    use trmma_roadnet::RoutePlanner;
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
    use trmma_traj::metrics::recovery_metrics;

    #[test]
    fn full_pipeline_produces_aligned_output() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let train = ds.samples(Split::Train, 0.2, 1);

        let mut mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        mma.train(&train, 3);
        let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
        model.train(&train, 3);
        let pipeline = TrmmaPipeline::new(Box::new(mma), model, "TRMMA");

        let s = &ds.samples(Split::Test, 0.2, 2)[0];
        let rec = pipeline.recover(&s.sparse, ds.epsilon_s);
        assert_eq!(rec.len(), s.dense_truth.len());
        let m = recovery_metrics(&net, &rec, &s.dense_truth, None);
        assert!(m.accuracy > 0.0);
        assert_eq!(pipeline.name(), "TRMMA");
    }

    #[test]
    fn matcher_swap_ablation_compiles_and_runs() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let nearest = NearestMatcher::new(net.clone(), planner);
        let model = Trmma::new(net, TrmmaConfig::small());
        let pipeline = TrmmaPipeline::new(Box::new(nearest), model, "TRMMA-Near");
        let s = &ds.samples(Split::Test, 0.2, 3)[0];
        let rec = pipeline.recover(&s.sparse, ds.epsilon_s);
        assert!(!rec.is_empty());
    }

    #[test]
    fn unusable_epsilon_and_non_finite_points_are_rejected() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
        let model = Trmma::new(net, TrmmaConfig::small());
        let pipeline = TrmmaPipeline::new(Box::new(mma), model, "TRMMA");
        let s = &ds.samples(Split::Test, 0.2, 3)[0];
        crate::test_support::assert_rejects_unusable_epsilon(&pipeline, &s.sparse);
        crate::test_support::assert_rejects_non_finite_points(&pipeline, &s.sparse, ds.epsilon_s);
    }
}
