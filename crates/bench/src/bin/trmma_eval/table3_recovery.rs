//! Table III: trajectory-recovery quality (Recall, Precision, F1, Accuracy
//! in %, MAE/RMSE in metres) at the default sparsity γ = 0.1.
//!
//! Methods (surrogate mapping per DESIGN.md §1):
//! * `Nearest+Lin` — nearest-segment matching + linear interpolation;
//! * `Linear`      — FMM matching + linear interpolation (the paper's
//!   `Linear` row);
//! * `Seq2SeqFull` — MTrajRec-style full-network seq2seq (the paper's
//!   learned-competitor family);
//! * `TRMMA`       — MMA matching + route-restricted recovery (ours).
//!
//! Expected shape: TRMMA best on every metric; Seq2SeqFull between the
//! interpolation baselines and TRMMA on segment metrics.

use trmma_baselines::{FmmMatcher, HmmConfig, LinearRecovery, NearestMatcher};
use trmma_bench::harness::{
    eval_recovery, per_1000, trained_mma, trained_seq2seq, trained_trmma, ExpConfig,
};
use trmma_bench::report::{meters, pct, secs};
use trmma_core::TrmmaPipeline;
use trmma_traj::TrajectoryRecovery;

use crate::{Figure, Row};

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "table3_recovery",
        header: format!(
            "== Table III: recovery quality (gamma=0.1, scale {:.2}, {} epochs) ==",
            cfg.scale, cfg.epochs
        ),
        columns: &[
            "Dataset",
            "Method",
            "Recall",
            "Precision",
            "F1",
            "Accuracy",
            "MAE(m)",
            "RMSE(m)",
            "s/1k",
        ],
        expected: "Expected shape (paper Table III): TRMMA best on all metrics per dataset.",
    }
    .run(cfg, |bundle, table, json| {
        let eps = bundle.ds.epsilon_s;

        let nearest = NearestMatcher::new(bundle.net.clone(), bundle.planner.clone());
        let near_lin = LinearRecovery::new(bundle.net.clone(), nearest, "Nearest+Lin");
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let fmm_lin = LinearRecovery::new(bundle.net.clone(), fmm, "Linear");
        // The |E|-softmax baseline converges (to its plateau) in a few
        // epochs and trains an order of magnitude slower than TRMMA; cap it
        // so the table regenerates in minutes.
        let (seq2seq, _) = trained_seq2seq(&bundle, cfg.seq2seq_config(), cfg.epochs.min(8));
        let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs);
        let (trmma, _) = trained_trmma(&bundle, cfg.trmma_config(), cfg.epochs);
        let pipeline = TrmmaPipeline::new(Box::new(mma), trmma, "TRMMA");

        let methods: Vec<&dyn TrajectoryRecovery> = vec![&near_lin, &fmm_lin, &seq2seq, &pipeline];
        for m in methods {
            let (metrics, infer_s) = eval_recovery(&bundle.net, m, &bundle.test, eps);
            let s1k = per_1000(infer_s, bundle.test.len());
            Row::default()
                .field("dataset", &bundle.ds.name, &bundle.ds.name)
                .field("method", m.name(), m.name())
                .field("recall", &metrics.recall, pct(metrics.recall))
                .field("precision", &metrics.precision, pct(metrics.precision))
                .field("f1", &metrics.f1, pct(metrics.f1))
                .field("accuracy", &metrics.accuracy, pct(metrics.accuracy))
                .field("mae_m", &metrics.mae, meters(metrics.mae))
                .field("rmse_m", &metrics.rmse, meters(metrics.rmse))
                .field("sec_per_1000", &s1k, secs(s1k))
                .push(table, json);
        }
    });
}
