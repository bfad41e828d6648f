//! Fig. 11: map-matching F1 under varied sparsity γ ∈ {0.1 … 0.5}.
//!
//! Expected shape: all matchers degrade as trajectories get sparser; MMA
//! leads at every sparsity level.

use trmma_baselines::{FmmMatcher, HmmConfig, NearestMatcher};
use trmma_bench::harness::{eval_matching, trained_mma, ExpConfig};
use trmma_traj::MapMatcher;

use crate::fig7_sparsity::{sweep_row, GAMMAS, TRAIN_GAMMAS};
use crate::Figure;

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "fig11_matching_sparsity",
        header: "== Fig. 11: matching F1 vs sparsity gamma ==".into(),
        columns: &["Dataset", "Method", "g=0.1", "g=0.2", "g=0.3", "g=0.4", "g=0.5"],
        expected: "Expected shape (paper Fig. 11): F1 rises with gamma; MMA best across the sweep.",
    }
    .run(cfg, |mut bundle, table, json| {
        let nearest = NearestMatcher::new(bundle.net.clone(), bundle.planner.clone());
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        bundle.train = bundle.resample(&TRAIN_GAMMAS).0;
        let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs);

        let methods: Vec<&dyn MapMatcher> = vec![&nearest, &fmm, &mma];
        for m in methods {
            let f1s: Vec<f64> =
                GAMMAS.iter().map(|&g| eval_matching(m, &bundle.resample(&[g]).1).0.f1).collect();
            sweep_row(table, json, &bundle.ds.name, m.name(), "f1", &f1s);
        }
    });
}
