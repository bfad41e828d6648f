//! Diagnostic: TRMMA decoder quality isolated from matcher errors.
//! Compares, on ground-truth matched inputs: TRMMA's learned decoding vs
//! pure linear interpolation along the true route.

use trmma_bench::harness::{Bundle, ExpConfig};
use trmma_core::{Trmma, TrmmaConfig};
use trmma_roadnet::shortest::DistCache;
use trmma_traj::epsilon_ticks;
use trmma_traj::metrics::recovery_metrics;
use trmma_traj::types::{MatchedPoint, MatchedTrajectory};

/// Linear interpolation along the *true* route between true matched points
/// (the upper bound of any interpolate-style method).
fn linear_on_truth(bundle: &Bundle, s: &trmma_traj::Sample, epsilon: f64) -> MatchedTrajectory {
    let net = &bundle.net;
    let route = &s.route;
    let mut prefix = Vec::with_capacity(route.len());
    let mut acc = 0.0;
    for &e in &route.segs {
        prefix.push(acc);
        acc += net.segment(e).length;
    }
    let offset = |seg, ratio: f64, from: usize| -> (usize, f64) {
        let idx = route.segs[from..].iter().position(|&e| e == seg).unwrap_or(0) + from;
        (idx, prefix[idx] + ratio * net.segment(route.segs[idx]).length)
    };
    let locate = |off: f64| -> (usize, f64) {
        let idx = prefix.partition_point(|&p| p <= off).saturating_sub(1);
        let len = net.segment(route.segs[idx]).length.max(1e-9);
        (idx, ((off - prefix[idx]) / len).min(1.0))
    };
    let mut out = vec![s.sparse_truth[0]];
    let (mut cur, mut prev_off) = offset(s.sparse_truth[0].seg, s.sparse_truth[0].ratio, 0);
    for w in s.sparse_truth.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let (b_idx, b_off) = offset(b.seg, b.ratio, cur);
        let missing = epsilon_ticks(b.t - a.t, epsilon) - 1;
        for j in 1..=missing {
            let f = j as f64 / (missing + 1) as f64;
            let (idx, ratio) = locate(prev_off + f * (b_off - prev_off));
            out.push(MatchedPoint::new(route.segs[idx], ratio, a.t + j as f64 * epsilon));
        }
        out.push(*b);
        cur = b_idx;
        prev_off = b_off;
    }
    MatchedTrajectory::new(out)
}

fn main() {
    let cfg = ExpConfig::from_env();
    let dcfg = &cfg.dataset_configs()[0];
    let bundle = Bundle::prepare(dcfg, 0.1, cfg.mma_config().d0);
    let eps = bundle.ds.epsilon_s;
    let cache = DistCache::new();

    let eval = |name: &str, rec_fn: &dyn Fn(&trmma_traj::Sample) -> MatchedTrajectory| {
        let mut acc = 0.0;
        let mut mae = 0.0;
        for s in &bundle.test {
            let rec = rec_fn(s);
            let m = recovery_metrics(&bundle.net, &rec, &s.dense_truth, Some(&cache));
            acc += m.accuracy;
            mae += m.mae;
        }
        let n = bundle.test.len() as f64;
        println!("{name}: acc {:.3}, mae {:.1}", acc / n, mae / n);
    };

    eval("linear-on-truth", &|s| linear_on_truth(&bundle, s, eps));

    let mut model = Trmma::new(bundle.net.clone(), cfg.trmma_config());
    eval("trmma epoch 0  ", &|s| {
        model.recover_from_match(&s.sparse, &s.sparse_truth, &s.route, eps)
    });
    for round in 1..=(cfg.epochs / 2).max(1) {
        let rep = model.train(&bundle.train, 2);
        print!(
            "after {:2} epochs (loss {:.4}, {:.1}s/ep) -> ",
            round * 2,
            rep.final_loss(),
            rep.mean_epoch_time_s()
        );
        eval("trmma", &|s| model.recover_from_match(&s.sparse, &s.sparse_truth, &s.route, eps));
    }

    let _ = TrmmaConfig::default();
}
