//! End-to-end integration tests spanning all crates: dataset generation →
//! training → map matching → recovery → metrics.

use std::sync::Arc;

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, LinearRecovery, NearestMatcher};
use trmma::core::{BatchOptions, BatchRecovery, Mma, MmaConfig, Trmma, TrmmaConfig};
use trmma::roadnet::RoutePlanner;
use trmma::traj::dataset::{build_dataset, Dataset, DatasetConfig, Split};
use trmma::traj::{matching_metrics, recovery_metrics, MapMatcher, Sample, TrajectoryRecovery};

fn fixture(
) -> (Dataset, Arc<trmma::roadnet::RoadNetwork>, Arc<RoutePlanner>, Vec<Sample>, Vec<Sample>) {
    let ds = build_dataset(&DatasetConfig::tiny());
    let net = Arc::new(ds.net.clone());
    let train = ds.samples(Split::Train, 0.2, 11);
    let test = ds.samples(Split::Test, 0.2, 12);
    let mut planner = RoutePlanner::untrained(&net);
    for s in &train {
        planner.observe(&s.route.segs);
    }
    (ds, net, Arc::new(planner), train, test)
}

#[test]
fn every_matcher_produces_valid_routes_on_every_test_sample() {
    let (_ds, net, planner, train, test) = fixture();
    let nearest = NearestMatcher::new(net.clone(), planner.clone());
    let hmm = HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
    let fmm = FmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
    let mut mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
    mma.train(&train[..train.len().min(8)], 2);
    let matchers: Vec<&dyn MapMatcher> = vec![&nearest, &hmm, &fmm, &mma];
    for m in matchers {
        for s in &test {
            let res = m.match_trajectory(&s.sparse);
            assert_eq!(res.matched.len(), s.sparse.len(), "{}", m.name());
            assert!(res.route.is_valid(&net), "{} route invalid", m.name());
            let q = matching_metrics(&res.route, &s.route);
            assert!((0.0..=1.0).contains(&q.f1));
        }
    }
}

#[test]
fn hmm_beats_nearest_on_route_quality() {
    let (_ds, net, planner, _train, test) = fixture();
    let nearest = NearestMatcher::new(net.clone(), planner.clone());
    let hmm = HmmMatcher::new(net.clone(), planner, HmmConfig::default());
    let mean_f1 = |m: &dyn MapMatcher| -> f64 {
        test.iter()
            .map(|s| matching_metrics(&m.match_trajectory(&s.sparse).route, &s.route).f1)
            .sum::<f64>()
            / test.len() as f64
    };
    let f1_nearest = mean_f1(&nearest);
    let f1_hmm = mean_f1(&hmm);
    assert!(f1_hmm > f1_nearest, "HMM ({f1_hmm:.3}) should beat Nearest ({f1_nearest:.3})");
}

#[test]
fn recovery_pipeline_outputs_align_with_epsilon_grid() {
    let (ds, net, planner, train, test) = fixture();
    let mut mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
    mma.train(&train[..train.len().min(8)], 2);
    let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
    model.train(&train[..train.len().min(8)], 2);
    let pipeline = BatchRecovery::new(Arc::new(mma), Arc::new(model), BatchOptions::default());
    for s in &test {
        let rec = pipeline.recover(&s.sparse, ds.epsilon_s);
        assert_eq!(rec.len(), s.dense_truth.len(), "ε-grid length");
        assert!(rec.satisfies_epsilon(ds.epsilon_s, 1e-6));
        for p in &rec.points {
            assert!((0.0..=1.0).contains(&p.ratio));
            assert!(p.seg.idx() < net.num_segments());
        }
    }
}

#[test]
fn linear_recovery_over_any_matcher_is_well_formed() {
    let (ds, net, planner, _train, test) = fixture();
    let fmm = FmmMatcher::new(net.clone(), planner, HmmConfig::default());
    let rec = LinearRecovery::new(net.clone(), Arc::new(fmm), "Linear");
    let cache = trmma::roadnet::shortest::DistCache::new();
    for s in &test {
        let out = rec.recover(&s.sparse, ds.epsilon_s);
        assert_eq!(out.len(), s.dense_truth.len());
        let m = recovery_metrics(&net, &out, &s.dense_truth, Some(&cache));
        assert!(m.mae.is_finite());
        assert!(m.rmse >= m.mae);
        assert!((0.0..=1.0).contains(&m.accuracy));
    }
}

#[test]
fn training_is_deterministic_under_fixed_seeds() {
    let (_ds, net, planner, train, test) = fixture();
    let subset = &train[..train.len().min(6)];
    let run = || -> Vec<u32> {
        let mut mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        mma.train(subset, 2);
        test.iter().flat_map(|s| mma.match_points(&s.sparse)).map(|p| p.seg.0).collect()
    };
    assert_eq!(run(), run(), "same seed, same data → same predictions");
}

#[test]
fn trained_models_persist_and_reload() {
    let (ds, net, planner, train, test) = fixture();
    let subset = &train[..train.len().min(6)];
    let mut mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
    mma.train(subset, 2);
    let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
    model.train(subset, 2);

    let mma_blob = mma.save_weights();
    let trmma_blob = model.save_weights();

    let mut mma2 = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
    mma2.load_weights(&mma_blob).expect("same-config load");
    let mut model2 = Trmma::new(net.clone(), TrmmaConfig::small());
    model2.load_weights(&trmma_blob).expect("same-config load");

    let p1 = BatchRecovery::new(Arc::new(mma), Arc::new(model), BatchOptions::default());
    let p2 = BatchRecovery::new(Arc::new(mma2), Arc::new(model2), BatchOptions::default());
    for s in test.iter().take(4) {
        let a = p1.recover(&s.sparse, ds.epsilon_s);
        let b = p2.recover(&s.sparse, ds.epsilon_s);
        assert_eq!(a, b, "reloaded pipeline must reproduce the original");
    }

    // Cross-config loads must fail cleanly.
    let mut wrong = Trmma::new(net, TrmmaConfig { dh: 16, ..TrmmaConfig::small() });
    assert!(wrong.load_weights(&trmma_blob).is_err());
}

#[test]
fn weight_blobs_with_trailing_bytes_are_refused() {
    let (_ds, net, planner, _train, _test) = fixture();
    let mut mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
    let mut trmma = Trmma::new(net, TrmmaConfig::small());
    let mut mma_blob = mma.save_weights();
    let mut trmma_blob = trmma.save_weights();
    mma_blob.push(0);
    trmma_blob.extend_from_slice(b"tail");
    assert!(mma.load_weights(&mma_blob).is_err(), "a byte after the last MMA value loaded");
    assert!(trmma.load_weights(&trmma_blob).is_err(), "bytes after the last TRMMA value loaded");
}

#[test]
fn early_stopping_never_worse_than_final_epoch_on_val() {
    let (_ds, net, planner, train, _test) = fixture();
    let subset = &train[..train.len().min(8)];
    let val = &train[train.len().min(8)..];
    if val.is_empty() {
        return;
    }
    let mut a = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
    a.train(subset, 5);
    let plain_val = a.validation_loss(val);
    let mut b = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
    let report = b.train_early_stop(subset, val, 5, 1);
    let early_val = b.validation_loss(val);
    assert!(
        early_val <= plain_val + 1e-9,
        "early stopping kept a worse epoch: {early_val} vs {plain_val}"
    );
    // The restored weights are byte for byte a plain run of the best
    // epoch's length (every `train` call reshuffles from the seed with a
    // fresh optimiser).
    let vl = &report.val_losses;
    let best = (0..vl.len()).fold(0, |b, i| if vl[i] < vl[b] { i } else { b });
    let mut c = Mma::new(net, planner, None, MmaConfig::small());
    c.train(subset, best + 1);
    assert!(b.save_weights() == c.save_weights(), "restored ≠ train(…, {})", best + 1);
}

#[test]
fn facade_reexports_work() {
    // The facade crate must expose the full stack.
    let net = trmma::roadnet::generate_city(&trmma::roadnet::NetworkConfig::with_size(4, 4, 1));
    assert!(net.num_segments() > 0);
    let tree = net.build_rtree();
    assert_eq!(tree.len(), net.num_segments());
    assert!(!trmma::VERSION.is_empty());
}
