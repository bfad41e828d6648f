//! Fig. 10: map-matching training time per epoch.
//!
//! MMA is the learned matcher here; the table also reports the one-off
//! costs of the non-learned pipeline pieces for context (FMM's UBODT
//! build, Node2Vec pre-training) — the paper's figure compares learned
//! matchers, whose surrogate in this repo is MMA itself vs the heavier
//! full-network baseline trained for recovery (Fig. 6).

use trmma_baselines::{FmmMatcher, HmmConfig};
use trmma_bench::harness::{trained_mma, ExpConfig};
use trmma_bench::report::secs;

use crate::{Figure, Row};

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "fig10_matching_training",
        header: "== Fig. 10: matching training time per epoch (s) ==".into(),
        columns: &["Dataset", "Cost", "seconds"],
        expected: "Expected shape (paper Fig. 10): MMA's per-epoch cost is small; one-off precomputations amortise.",
    }
    .run(cfg, |bundle, table, json| {
        let (_, report) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs);
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let n2v_s = bundle.node2vec_s();

        for (what, seconds) in [
            ("MMA s/epoch", report.mean_epoch_time_s()),
            ("FMM UBODT build (one-off)", fmm.precompute_s),
            ("Node2Vec pretrain (one-off)", n2v_s),
        ] {
            Row::default()
                .field("dataset", &bundle.ds.name, &bundle.ds.name)
                .field("cost", what, what)
                .field("seconds", &seconds, secs(seconds))
                .push(table, json);
        }
    });
}
