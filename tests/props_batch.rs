//! Property tests for the batched inference engine: output must be
//! bitwise-identical to the sequential API for every thread count and every
//! input order (results keyed by trajectory).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use trmma::core::{
    par_match_pooled, BatchOptions, BatchRecovery, Mma, MmaConfig, Trmma, TrmmaConfig,
};
use trmma::roadnet::RoutePlanner;
use trmma::traj::dataset::{build_dataset, DatasetConfig, Split};
use trmma::traj::types::{MatchedTrajectory, Trajectory};
use trmma::traj::{MapMatcher, MatchResult};

/// Shared fixture: trained models, a batch, and the sequential reference
/// outputs. Built once — property cases only vary threads and order.
struct Fixture {
    mma: Arc<Mma>,
    trmma: Arc<Trmma>,
    batch: Vec<Trajectory>,
    match_ref: Vec<MatchResult>,
    recover_ref: Vec<MatchedTrajectory>,
    eps: f64,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 21).into_iter().take(6).collect();
        let mut mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
        mma.train(&train, 2);
        let mut trmma = Trmma::new(net, TrmmaConfig::small());
        trmma.train(&train, 2);
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 22).into_iter().take(10).map(|s| s.sparse).collect();
        let match_ref: Vec<MatchResult> = batch.iter().map(|t| mma.match_trajectory(t)).collect();
        let recover_ref: Vec<MatchedTrajectory> = batch
            .iter()
            .zip(&match_ref)
            .map(|(t, r)| trmma.recover_from_match(t, &r.matched, &r.route, ds.epsilon_s))
            .collect();
        Fixture {
            mma: Arc::new(mma),
            trmma: Arc::new(trmma),
            batch,
            match_ref,
            recover_ref,
            eps: ds.epsilon_s,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batch_matcher_deterministic_across_threads_and_order(
        threads in 1usize..6,
        shuffle_seed in 0u64..1_000,
    ) {
        let fx = fixture();
        let opts = BatchOptions::with_threads(threads);

        // Same order: identical to the sequential reference.
        let (got, _) = par_match_pooled(&*fx.mma, &fx.batch, opts);
        prop_assert_eq!(&got, &fx.match_ref);

        // Shuffled order: each trajectory keeps its result.
        let mut order: Vec<usize> = (0..fx.batch.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let shuffled: Vec<Trajectory> = order.iter().map(|&i| fx.batch[i].clone()).collect();
        let (got_shuffled, _) = par_match_pooled(&*fx.mma, &shuffled, opts);
        for (slot, &src) in order.iter().enumerate() {
            prop_assert_eq!(&got_shuffled[slot], &fx.match_ref[src]);
        }
    }

    #[test]
    fn batch_recovery_deterministic_across_threads_and_order(
        threads in 1usize..6,
        shuffle_seed in 0u64..1_000,
    ) {
        let fx = fixture();
        let engine = BatchRecovery::new(
            fx.mma.clone(),
            fx.trmma.clone(),
            BatchOptions::with_threads(threads),
        );

        let got = engine.recover_batch(&fx.batch, fx.eps);
        prop_assert_eq!(&got, &fx.recover_ref);

        let mut order: Vec<usize> = (0..fx.batch.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let shuffled: Vec<Trajectory> = order.iter().map(|&i| fx.batch[i].clone()).collect();
        let got_shuffled = engine.recover_batch(&shuffled, fx.eps);
        for (slot, &src) in order.iter().enumerate() {
            prop_assert_eq!(&got_shuffled[slot], &fx.recover_ref[src]);
        }
    }
}
