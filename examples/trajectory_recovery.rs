//! Sparse trajectory recovery: compare linear interpolation against TRMMA
//! across sparsity levels, on one synthetic dataset.
//!
//! ```sh
//! cargo run --release --example trajectory_recovery
//! ```

use std::sync::Arc;

use trmma::baselines::{FmmMatcher, HmmConfig, LinearRecovery};
use trmma::core::{BatchOptions, BatchRecovery, Mma, MmaConfig, Trmma, TrmmaConfig};
use trmma::roadnet::RoutePlanner;
use trmma::traj::dataset::{build_dataset, DatasetConfig, Split};
use trmma::traj::{recovery_metrics, TrajectoryRecovery};

fn main() {
    let ds = build_dataset(&DatasetConfig::tiny());
    let net = Arc::new(ds.net.clone());
    let train = ds.samples(Split::Train, 0.2, 1);
    let mut planner = RoutePlanner::untrained(&net);
    for s in &train {
        planner.observe(&s.route.segs);
    }
    let planner = Arc::new(planner);

    // Baseline: FMM matching + linear interpolation along the route.
    let fmm = FmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
    let linear = LinearRecovery::new(net.clone(), Arc::new(fmm), "Linear");

    // Ours: MMA matching + TRMMA route-restricted decoding.
    let mut mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
    mma.train(&train, 6);
    let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
    model.train(&train, 6);
    let trmma = BatchRecovery::new(Arc::new(mma), Arc::new(model), BatchOptions::default());

    println!("{:>6} {:>12} {:>10} {:>10} {:>10}", "gamma", "method", "accuracy", "F1", "MAE(m)");
    for gamma in [0.1, 0.3, 0.5] {
        let test = ds.samples(Split::Test, gamma, 2);
        for method in [&linear as &dyn TrajectoryRecovery, &trmma] {
            let mut acc = 0.0;
            let mut f1 = 0.0;
            let mut mae = 0.0;
            for s in &test {
                let rec = method.recover(&s.sparse, ds.epsilon_s);
                let m = recovery_metrics(&net, &rec, &s.dense_truth, None);
                acc += m.accuracy;
                f1 += m.f1;
                mae += m.mae;
            }
            let n = test.len() as f64;
            println!(
                "{:>6.1} {:>12} {:>9.1}% {:>9.1}% {:>10.1}",
                gamma,
                method.name(),
                100.0 * acc / n,
                100.0 * f1 / n,
                mae / n
            );
        }
    }
    println!("\nSparser inputs (smaller gamma) are harder for every method;");
    println!("the learned decoder holds up better than interpolation.");
}
