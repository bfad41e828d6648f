//! Quickstart: generate a synthetic city + trajectories, train MMA and
//! TRMMA briefly with early stopping, then map-match and recover one
//! sparse trajectory. Exits non-zero unless training lowers each model's
//! validation loss.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use trmma::core::{BatchOptions, BatchRecovery, Mma, MmaConfig, Trmma, TrmmaConfig};
use trmma::nn::TrainReport;
use trmma::roadnet::RoutePlanner;
use trmma::traj::dataset::{build_dataset, DatasetConfig, Split};
use trmma::traj::{recovery_metrics, MapMatcher, TrajectoryRecovery};

fn main() {
    // 1. A small synthetic dataset: road network + high-sampling
    //    trajectories with exact ground truth, split 40/30/30.
    let ds = build_dataset(&DatasetConfig::tiny());
    let net = Arc::new(ds.net.clone());
    println!(
        "network: {} segments, {} intersections; {} trajectories (ε = {} s)",
        net.num_segments(),
        net.num_nodes(),
        ds.all_raws().len(),
        ds.epsilon_s
    );

    // 2. Sparse samples at γ = 0.2 (inputs have 5× longer intervals).
    let train = ds.samples(Split::Train, 0.2, 1);
    let val = ds.samples(Split::Val, 0.2, 3);
    let test = ds.samples(Split::Test, 0.2, 2);

    // 3. The shared route planner, fitted on historical training routes.
    let mut planner = RoutePlanner::untrained(&net);
    for s in &train {
        planner.observe(&s.route.segs);
    }
    let planner = Arc::new(planner);

    // 4. Train MMA (map matching) and TRMMA (recovery) with early stopping
    //    on the validation split: up to 8 epochs, patience 2, best epoch's
    //    weights restored.
    let mut mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
    let untrained = mma.validation_loss(&val);
    let report = mma.train_early_stop(&train, &val, 8, 2);
    let mma_ok = report_early_stop("MMA", untrained, mma.validation_loss(&val), &report);
    let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
    let untrained = model.validation_loss(&val);
    let report = model.train_early_stop(&train, &val, 8, 2);
    let trmma_ok = report_early_stop("TRMMA", untrained, model.validation_loss(&val), &report);
    if !(mma_ok && trmma_ok) {
        eprintln!("training did not lower the validation loss");
        std::process::exit(1);
    }

    // 5. Match + recover one test trajectory to show the shapes involved.
    let sample = &test[0];
    let matched = mma.match_trajectory(&sample.sparse);
    println!(
        "\ninput: {} sparse GPS points -> matched route of {} segments",
        sample.sparse.len(),
        matched.route.len()
    );
    let pipeline = BatchRecovery::new(Arc::new(mma), Arc::new(model), BatchOptions::default());
    let recovered = pipeline.recover(&sample.sparse, ds.epsilon_s);
    println!(
        "recovered {} points at ε = {} s (ground truth has {})",
        recovered.len(),
        ds.epsilon_s,
        sample.dense_truth.len()
    );

    // 6. Score the whole test split against the ground truth.
    let mut sums = (0.0, 0.0, 0.0, 0.0);
    for s in &test {
        let rec = pipeline.recover(&s.sparse, ds.epsilon_s);
        let m = recovery_metrics(&net, &rec, &s.dense_truth, None);
        sums.0 += m.recall;
        sums.1 += m.precision;
        sums.2 += m.accuracy;
        sums.3 += m.mae;
    }
    let n = test.len() as f64;
    println!(
        "\nmean over {} test trajectories: recall {:.1}%, precision {:.1}%, accuracy {:.1}%, MAE {:.1} m",
        test.len(),
        100.0 * sums.0 / n,
        100.0 * sums.1 / n,
        100.0 * sums.2 / n,
        sums.3 / n
    );
    println!("(toy-sized data and training — the bench harness in crates/bench runs the paper-shaped experiments)");
}

/// Prints one model's early-stopped run; whether its restored validation
/// loss beats the untrained one.
fn report_early_stop(name: &str, untrained: f64, restored: f64, report: &TrainReport) -> bool {
    println!(
        "{name} trained: {} epochs run, final train loss {:.4}, validation loss {untrained:.4} untrained -> {restored:.4} restored",
        report.epoch_losses.len(),
        report.final_loss()
    );
    restored < untrained
}
