//! Table V: map-matching quality (Precision, Recall, F1, Jaccard in %).
//!
//! Methods: Nearest, HMM, FMM, LHMM (fitted-parameter HMM surrogate) and
//! MMA. Expected shape: MMA best on every metric; FMM ≈ HMM (same model,
//! different oracle); LHMM ≥ HMM (parameters fitted to the corpus);
//! Nearest worst.
//!
//! Every row runs through the pooled batch engine (`par_match_pooled`) —
//! quality numbers are identical to the sequential loop by the engine's
//! determinism contract, and the s/1k column is the parallel wall-clock.

use trmma_baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher, NearestMatcher};
use trmma_bench::harness::{eval_matching_pooled, per_1000, trained_mma, ExpConfig};
use trmma_bench::report::{pct, secs};
use trmma_core::BatchOptions;
use trmma_traj::MapMatcher;

use crate::{Figure, Row};

pub(crate) fn run(cfg: &ExpConfig) {
    let opts = BatchOptions::default();
    Figure {
        name: "table5_matching",
        header: "== Table V: map-matching quality ==".into(),
        columns: &["Dataset", "Method", "Precision", "Recall", "F1", "Jaccard", "s/1k"],
        expected: "Expected shape (paper Table V): MMA best everywhere; Nearest weakest.",
    }
    .run(cfg, |bundle, table, json| {
        let nearest = NearestMatcher::new(bundle.net.clone(), bundle.planner.clone());
        let hmm = HmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let lhmm = LhmmMatcher::fit(
            bundle.net.clone(),
            bundle.planner.clone(),
            HmmConfig::default(),
            &bundle.train,
        );
        let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs);

        for (name, (metrics, infer_s)) in [
            (nearest.name(), eval_matching_pooled(&nearest, &bundle.test, opts)),
            (hmm.name(), eval_matching_pooled(&hmm, &bundle.test, opts)),
            (fmm.name(), eval_matching_pooled(&fmm, &bundle.test, opts)),
            (lhmm.name(), eval_matching_pooled(&lhmm, &bundle.test, opts)),
            (mma.name(), eval_matching_pooled(&mma, &bundle.test, opts)),
        ] {
            let s1k = per_1000(infer_s, bundle.test.len());
            Row::default()
                .field("dataset", &bundle.ds.name, &bundle.ds.name)
                .field("method", name, name)
                .field("precision", &metrics.precision, pct(metrics.precision))
                .field("recall", &metrics.recall, pct(metrics.recall))
                .field("f1", &metrics.f1, pct(metrics.f1))
                .field("jaccard", &metrics.jaccard, pct(metrics.jaccard))
                .field("sec_per_1000", &s1k, secs(s1k))
                .push(table, json);
        }
    });
}
