//! Fig. 2: the ratio of GPS points whose ground-truth segment lies within
//! their top-kc nearest segments, for kc = 1..10.
//!
//! This is the empirical analysis motivating MMA's candidate-set
//! formulation: at kc = 1 the ratio is only ~0.7 (the nearest segment is
//! often the wrong one — typically the reverse lane), while by kc = 10 it
//! approaches 1.

use trmma_bench::harness::ExpConfig;
use trmma_bench::json;
use trmma_roadnet::RoadNetwork;
use trmma_traj::api::CandidateFinder;
use trmma_traj::Sample;

use crate::Figure;

const MAX_KC: usize = 10;

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "fig2_candidates",
        header: "== Fig. 2: true-segment coverage of top-kc candidates ==".into(),
        columns: &[
            "Dataset", "kc=1", "kc=2", "kc=3", "kc=4", "kc=5", "kc=6", "kc=7", "kc=8", "kc=9",
            "kc=10",
        ],
        expected: "Expected shape: ~0.7 at kc=1 rising towards 1.0 at kc=10 (paper Fig. 2).",
    }
    .run(cfg, |bundle, table, json| {
        // "for every GPS point pi in every trajectory in D" — training split.
        let (ratios, total) = coverage_by_kc(&bundle.net, &bundle.train);
        let mut row = vec![bundle.ds.name.clone()];
        row.extend(ratios.iter().map(|r| format!("{r:.3}")));
        table.row(row);
        json.push(json!({
            "dataset": bundle.ds.name,
            "total_points": total,
            "coverage_by_kc": ratios,
        }));
    });
}

/// The share of the points of `samples` whose true segment is among their
/// kc nearest segments, for kc = 1 to 10, and the number of points.
pub(crate) fn coverage_by_kc(net: &RoadNetwork, samples: &[Sample]) -> (Vec<f64>, usize) {
    let finder = CandidateFinder::new(net, MAX_KC);
    let mut hits = [0usize; MAX_KC];
    let mut total = 0usize;
    for s in samples {
        for (p, truth) in s.sparse.points.iter().zip(&s.sparse_truth) {
            let cands = finder.candidates(p.pos);
            total += 1;
            if let Some(rank) = cands.iter().position(|c| c.seg == truth.seg) {
                for h in hits.iter_mut().skip(rank) {
                    *h += 1;
                }
            }
        }
    }
    (hits.iter().map(|&h| h as f64 / total.max(1) as f64).collect(), total)
}
