//! Map matching on sparse trajectories: compare the classic matchers
//! (Nearest, HMM, FMM) against the learned MMA on one synthetic dataset.
//!
//! Exits non-zero if HMM and FMM decode any trip differently: both bound
//! routes at 5 000 m, HMM by Dijkstra sweeps pruned toward their targets
//! and FMM by its precomputed table, and the two must read the same
//! distances bit for bit (DESIGN.md §16).
//!
//! ```sh
//! cargo run --release --example map_matching
//! ```

use std::sync::Arc;
use std::time::Instant;

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, NearestMatcher};
use trmma::core::{Mma, MmaConfig};
use trmma::roadnet::RoutePlanner;
use trmma::traj::dataset::{build_dataset, DatasetConfig, Split};
use trmma::traj::metrics::MetricAverager;
use trmma::traj::{matching_metrics, MapMatcher};

fn main() {
    let ds = build_dataset(&DatasetConfig::tiny());
    let net = Arc::new(ds.net.clone());
    let train = ds.samples(Split::Train, 0.2, 1);
    let test = ds.samples(Split::Test, 0.2, 2);
    let mut planner = RoutePlanner::untrained(&net);
    for s in &train {
        planner.observe(&s.route.segs);
    }
    let planner = Arc::new(planner);

    let nearest = NearestMatcher::new(net.clone(), planner.clone());
    let hmm = HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
    let fmm = FmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
    println!("FMM UBODT: {} node pairs precomputed in {:.2} s", fmm.table_len(), fmm.precompute_s);
    let mut mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
    mma.train(&train, 6);

    println!(
        "\n{:<10} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "method", "precision", "recall", "F1", "jaccard", "ms/traj"
    );
    let matchers: Vec<&dyn MapMatcher> = vec![&nearest, &hmm, &fmm, &mma];
    for m in matchers {
        let mut avg = MetricAverager::new();
        let start = Instant::now();
        for s in &test {
            let res = m.match_trajectory(&s.sparse);
            avg.add_matching(matching_metrics(&res.route, &s.route));
        }
        let per_traj_ms = start.elapsed().as_secs_f64() / test.len() as f64 * 1e3;
        let mm = avg.mean_matching();
        println!(
            "{:<10} {:>9.1}% {:>9.1}% {:>7.1}% {:>7.1}% {:>10.2}",
            m.name(),
            100.0 * mm.precision,
            100.0 * mm.recall,
            100.0 * mm.f1,
            100.0 * mm.jaccard,
            per_traj_ms
        );
    }

    let differ = test
        .iter()
        .filter(|s| hmm.match_trajectory(&s.sparse) != fmm.match_trajectory(&s.sparse))
        .count();
    if differ > 0 {
        eprintln!("HMM and FMM decoded {differ} of {} trips differently", test.len());
        std::process::exit(1);
    }
    println!("\nHMM and FMM decoded all {} trips identically", test.len());
}
