//! Fig. 8: recovery accuracy vs amount of training data (% of the train
//! split).
//!
//! `Linear` needs no training and serves as the flat benchmark line.
//! Expected shape: TRMMA improves with more data and overtakes `Linear`
//! after a few percent of the corpus (paper: 1–3 %; here the corpus is
//! smaller so the crossover shifts right).

use trmma_baselines::{FmmMatcher, HmmConfig, LinearRecovery};
use trmma_bench::harness::{eval_recovery, trained_mma, trained_trmma, ExpConfig};
use trmma_bench::json;
use trmma_core::TrmmaPipeline;

use crate::Figure;

const FRACTIONS: [f64; 5] = [0.05, 0.2, 0.4, 0.7, 1.0];

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "fig8_training_size",
        header: "== Fig. 8: recovery accuracy vs training-data fraction ==".into(),
        columns: &["Dataset", "Method", "5%", "20%", "40%", "70%", "100%"],
        expected: "Expected shape (paper Fig. 8): TRMMA rises with data and crosses the flat Linear line.",
    }
    .run(cfg, |mut bundle, table, json| {
        let eps = bundle.ds.epsilon_s;
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let linear = LinearRecovery::new(bundle.net.clone(), fmm, "Linear");
        let (lin_metrics, _) = eval_recovery(&bundle.net, &linear, &bundle.test, eps);

        let all = std::mem::take(&mut bundle.train);
        let mut trmma_accs = Vec::new();
        for &frac in &FRACTIONS {
            let take = ((all.len() as f64) * frac).ceil().max(1.0) as usize;
            bundle.train = all[..take.min(all.len())].to_vec();
            let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs);
            let (trmma, _) = trained_trmma(&bundle, cfg.trmma_config(), cfg.epochs);
            let pipeline = TrmmaPipeline::new(Box::new(mma), trmma, "TRMMA");
            let (m, _) = eval_recovery(&bundle.net, &pipeline, &bundle.test, eps);
            trmma_accs.push(m.accuracy);
        }

        let mut lin_row = vec![bundle.ds.name.clone(), "Linear".into()];
        lin_row.extend(FRACTIONS.iter().map(|_| format!("{:.3}", lin_metrics.accuracy)));
        table.row(lin_row);
        let mut trm_row = vec![bundle.ds.name.clone(), "TRMMA".into()];
        trm_row.extend(trmma_accs.iter().map(|a| format!("{a:.3}")));
        table.row(trm_row);
        json.push(json!({
            "dataset": bundle.ds.name,
            "fractions": FRACTIONS,
            "linear_accuracy": lin_metrics.accuracy,
            "trmma_accuracy": trmma_accs,
        }));
    });
}
