//! Learned-HMM map matching (LHMM surrogate).
//!
//! LHMM (Shi et al., ICDE 2023) enhances the classic HMM by *learning* its
//! probabilities from data instead of hand-tuning them. This surrogate
//! learns two scalars and nothing else: the emission deviation σ_z and the
//! transition scale β are fitted by maximum likelihood on the training
//! corpus (σ̂ = RMS perpendicular distance of true matches; β̂ = mean
//! absolute detour between consecutive true matches, the MLE of an
//! exponential scale). [`LhmmMatcher`] is an [`HmmMatcher`] built with
//! those two values, and delegates every call to it (DESIGN.md §1).

use std::sync::Arc;

use trmma_geom::Vec2;
use trmma_roadnet::shortest::{matched_dist_directed, DistCache, NetPos};
use trmma_roadnet::{RoadNetwork, RoutePlanner};
use trmma_traj::api::MatchResult;
use trmma_traj::online::{OnlineMatcher, OnlineUpdate};
use trmma_traj::snapshot::SnapshotError;
use trmma_traj::types::GpsPoint;
use trmma_traj::Sample;

use crate::hmm::{HmmConfig, HmmMatcher, HmmScratch, HmmSession};

/// Fitted HMM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedParams {
    /// Maximum-likelihood emission deviation (metres).
    pub sigma_z_m: f64,
    /// Maximum-likelihood transition scale (metres).
    pub beta_m: f64,
    /// Number of points the emission fit saw.
    pub n_emission: usize,
    /// Number of transitions the detour fit saw.
    pub n_transition: usize,
}

/// Fits σ_z and β from ground-truth matched training samples.
///
/// σ̂_z is the root-mean-square distance between each GPS point and its
/// true matched position; β̂ is the mean absolute difference between route
/// distance and straight-line displacement over consecutive points (the
/// MLE of the exponential detour model used by Newson & Krumm).
#[must_use]
pub fn fit_params(net: &RoadNetwork, samples: &[Sample], max_route_m: f64) -> FittedParams {
    let cache = DistCache::new();
    let mut sq_sum = 0.0;
    let mut n_emission = 0usize;
    let mut detour_sum = 0.0;
    let mut n_transition = 0usize;
    for s in samples {
        for (p, truth) in s.sparse.points.iter().zip(&s.sparse_truth) {
            let true_pos: Vec2 = truth.pos(net);
            sq_sum += p.pos.dist_sq(true_pos);
            n_emission += 1;
        }
        for (pw, tw) in s.sparse.points.windows(2).zip(s.sparse_truth.windows(2)) {
            let straight = pw[1].pos.dist(pw[0].pos);
            let a = NetPos::new(tw[0].seg, tw[0].ratio);
            let b = NetPos::new(tw[1].seg, tw[1].ratio);
            if let Some(route) = matched_dist_directed(net, a, b, max_route_m, Some(&cache)) {
                detour_sum += (route - straight).abs();
                n_transition += 1;
            }
        }
    }
    FittedParams {
        sigma_z_m: (sq_sum / n_emission.max(1) as f64).sqrt().max(1.0),
        beta_m: (detour_sum / n_transition.max(1) as f64).max(1.0),
        n_emission,
        n_transition,
    }
}

/// The learned-HMM matcher: a [`HmmMatcher`] whose parameters are fitted
/// rather than fixed. Construct with [`LhmmMatcher::fit`].
pub struct LhmmMatcher {
    inner: HmmMatcher,
    params: FittedParams,
}

impl LhmmMatcher {
    /// Fits the parameters on `train` and builds the matcher.
    #[must_use]
    pub fn fit(
        net: Arc<RoadNetwork>,
        planner: Arc<RoutePlanner>,
        base: HmmConfig,
        train: &[Sample],
    ) -> Self {
        let params = fit_params(&net, train, base.max_route_m);
        let cfg = HmmConfig { sigma_z_m: params.sigma_z_m, beta_m: params.beta_m, ..base };
        Self { inner: HmmMatcher::new(net, planner, cfg), params }
    }

    /// Like [`LhmmMatcher::fit`], but decoding on a sharded network. The
    /// parameter fit runs on the whole graph — training happens where the
    /// ground truth lives, and the fitted σ̂/β̂ are therefore identical to
    /// the monolithic matcher's — only the decode-time candidate search and
    /// transition lookups go through the shards.
    #[must_use]
    pub fn fit_sharded(
        sharded: Arc<trmma_roadnet::ShardedNetwork>,
        planner: Arc<RoutePlanner>,
        base: HmmConfig,
        train: &[Sample],
    ) -> Self {
        let params = fit_params(sharded.net(), train, base.max_route_m);
        let cfg = HmmConfig { sigma_z_m: params.sigma_z_m, beta_m: params.beta_m, ..base };
        Self { inner: HmmMatcher::sharded(sharded, planner, cfg), params }
    }

    /// The fitted parameters.
    #[must_use]
    pub fn params(&self) -> FittedParams {
        self.params
    }

    /// The route-distance oracle (shared, read-only) of the fitted matcher.
    #[must_use]
    pub fn provider(&self) -> &trmma_roadnet::TransitionProvider {
        self.inner.provider()
    }
}

/// LHMM decodes exactly as the HMM it wraps, with the fitted σ̂/β̂; only
/// the name differs.
impl OnlineMatcher for LhmmMatcher {
    const NAME: &'static str = "LHMM";
    type Scratch = HmmScratch;
    type Session = HmmSession;

    fn make_scratch(&self) -> HmmScratch {
        self.inner.make_scratch()
    }

    fn allocs_avoided(scratch: &HmmScratch) -> u64 {
        HmmMatcher::allocs_avoided(scratch)
    }

    fn begin_session(&self) -> HmmSession {
        self.inner.begin_session()
    }

    fn advance(&self, scratch: &mut HmmScratch, session: &mut HmmSession, point: GpsPoint) {
        self.inner.advance(scratch, session, point);
    }

    fn update(&self, scratch: &mut HmmScratch, session: &mut HmmSession) -> OnlineUpdate {
        self.inner.update(scratch, session)
    }

    fn finalize(&self, scratch: &mut HmmScratch, session: HmmSession) -> MatchResult {
        self.inner.finalize(scratch, session)
    }

    fn session_len(&self, session: &HmmSession) -> usize {
        self.inner.session_len(session)
    }

    fn session_watermark(&self, session: &HmmSession) -> usize {
        self.inner.session_watermark(session)
    }

    fn snapshot_session(&self, session: &HmmSession, out: &mut Vec<u8>) {
        self.inner.snapshot_session(session, out);
    }

    fn restore_session(&self, bytes: &[u8]) -> Result<HmmSession, SnapshotError> {
        self.inner.restore_session(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trmma_roadnet::{generate_city, NetworkConfig};
    use trmma_traj::gen::{generate_trajectory, sparsify, TrajConfig};
    use trmma_traj::metrics::matching_metrics;
    use trmma_traj::MapMatcher;

    fn fixture() -> (Arc<RoadNetwork>, Arc<RoutePlanner>, Vec<Sample>, Vec<Sample>, TrajConfig) {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(8, 8, 91)));
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let cfg = TrajConfig { min_points: 12, gps_noise_m: 9.0, ..TrajConfig::default() };
        let mut rng = StdRng::seed_from_u64(17);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for i in 0..12 {
            if let Some(raw) = generate_trajectory(&net, &cfg, &mut rng) {
                let s = sparsify(&raw, 0.3, &mut rng);
                if i % 2 == 0 {
                    train.push(s);
                } else {
                    test.push(s);
                }
            }
        }
        (net, planner, train, test, cfg)
    }

    #[test]
    fn fitted_sigma_tracks_injected_noise() {
        let (net, _planner, train, _test, cfg) = fixture();
        let params = fit_params(&net, &train, 5_000.0);
        assert!(params.n_emission > 10);
        // RMS of 2-D Gaussian displacement with per-axis σ is σ·√2; the
        // clamped projection makes the observed value land below that.
        let upper = cfg.gps_noise_m * 2.0;
        let lower = cfg.gps_noise_m * 0.5;
        assert!(
            (lower..upper).contains(&params.sigma_z_m),
            "sigma {} outside [{lower}, {upper}]",
            params.sigma_z_m
        );
        assert!(params.beta_m >= 1.0);
    }

    #[test]
    fn lhmm_matches_with_comparable_quality_to_hmm() {
        let (net, planner, train, test, _cfg) = fixture();
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
        let lhmm = LhmmMatcher::fit(net.clone(), planner, HmmConfig::default(), &train);
        assert_eq!(lhmm.name(), "LHMM");
        let mean_f1 = |m: &dyn MapMatcher| -> f64 {
            test.iter()
                .map(|s| matching_metrics(&m.match_trajectory(&s.sparse).route, &s.route).f1)
                .sum::<f64>()
                / test.len() as f64
        };
        let f_hmm = mean_f1(&hmm);
        let f_lhmm = mean_f1(&lhmm);
        // The fitted parameters must stay in the same quality regime as the
        // hand-tuned ones (they are fitted to exactly this distribution).
        assert!(f_lhmm > 0.8 * f_hmm, "LHMM {f_lhmm:.3} collapsed vs HMM {f_hmm:.3}");
    }
}
