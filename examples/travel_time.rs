//! An application from the paper's introduction: travel-time estimation.
//!
//! Sparse trajectories give poor per-segment speed estimates because most
//! segments are never observed. Recovering high-sampling trajectories first
//! (TRMMA) densifies the coverage and tightens the estimates — the reason
//! data quality matters for downstream analytics.
//!
//! ```sh
//! cargo run --release --example travel_time
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use trmma::core::{BatchOptions, BatchRecovery, Mma, MmaConfig, Trmma, TrmmaConfig};
use trmma::roadnet::RoutePlanner;
use trmma::traj::dataset::{build_dataset, DatasetConfig, Split};
use trmma::traj::types::MatchedTrajectory;
use trmma::traj::TrajectoryRecovery;

/// Per-segment mean traversal speed (m/s) estimated from consecutive
/// same-segment matched points.
fn estimate_speeds(
    net: &trmma::roadnet::RoadNetwork,
    trajs: &[MatchedTrajectory],
) -> HashMap<u32, f64> {
    let mut sums: HashMap<u32, (f64, f64)> = HashMap::new();
    for t in trajs {
        for w in t.points.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.seg == b.seg && b.t > a.t && b.ratio > a.ratio {
                let dist = (b.ratio - a.ratio) * net.segment(a.seg).length;
                let speed = dist / (b.t - a.t);
                if speed > 0.3 {
                    let e = sums.entry(a.seg.0).or_insert((0.0, 0.0));
                    e.0 += speed;
                    e.1 += 1.0;
                }
            }
        }
    }
    sums.into_iter().map(|(k, (s, n))| (k, s / n)).collect()
}

fn coverage_and_error(
    net: &trmma::roadnet::RoadNetwork,
    est: &HashMap<u32, f64>,
    truth: &HashMap<u32, f64>,
) -> (f64, f64) {
    let covered = est.len() as f64 / net.num_segments() as f64;
    let mut err = 0.0;
    let mut n = 0.0;
    for (seg, v) in est {
        if let Some(t) = truth.get(seg) {
            err += (v - t).abs() / t;
            n += 1.0;
        }
    }
    (covered, if n > 0.0 { err / n } else { f64::NAN })
}

fn main() {
    let ds = build_dataset(&DatasetConfig::tiny());
    let net = Arc::new(ds.net.clone());
    let train = ds.samples(Split::Train, 0.2, 1);
    let test = ds.samples(Split::Test, 0.3, 2);
    let mut planner = RoutePlanner::untrained(&net);
    for s in &train {
        planner.observe(&s.route.segs);
    }
    let planner = Arc::new(planner);

    // Ground-truth speeds from the dense trajectories.
    let dense: Vec<MatchedTrajectory> = test.iter().map(|s| s.dense_truth.clone()).collect();
    let truth_speeds = estimate_speeds(&net, &dense);

    // (a) Estimates from the raw sparse observations only.
    let sparse: Vec<MatchedTrajectory> =
        test.iter().map(|s| MatchedTrajectory::new(s.sparse_truth.clone())).collect();
    let sparse_speeds = estimate_speeds(&net, &sparse);

    // (b) Estimates from TRMMA-recovered ε-trajectories.
    let mut mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
    mma.train(&train, 8);
    let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
    model.train(&train, 8);
    let pipeline = BatchRecovery::new(Arc::new(mma), Arc::new(model), BatchOptions::default());
    let recovered: Vec<MatchedTrajectory> =
        test.iter().map(|s| pipeline.recover(&s.sparse, ds.epsilon_s)).collect();
    let recovered_speeds = estimate_speeds(&net, &recovered);

    let (c_sparse, e_sparse) = coverage_and_error(&net, &sparse_speeds, &truth_speeds);
    let (c_rec, e_rec) = coverage_and_error(&net, &recovered_speeds, &truth_speeds);
    println!("segment speed estimation ({} test trajectories):", test.len());
    println!(
        "  from sparse points:    {:>5.1}% of segments covered, {:>5.1}% mean speed error",
        100.0 * c_sparse,
        100.0 * e_sparse
    );
    println!(
        "  from TRMMA recovery:   {:>5.1}% of segments covered, {:>5.1}% mean speed error",
        100.0 * c_rec,
        100.0 * e_rec
    );
    println!("\nRecovery multiplies usable observations per segment — the paper's");
    println!("motivation for high-quality trajectory data in traffic analytics.");
}
