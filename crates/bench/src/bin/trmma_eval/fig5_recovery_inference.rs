//! Fig. 5: inference time per 1000 trajectory recoveries (seconds).
//!
//! Expected shape: TRMMA orders of magnitude faster than the full-network
//! seq2seq baseline (its decoder scores only the route's segments instead
//! of all |E|); interpolation baselines sit between, dominated by their
//! HMM matcher's Dijkstra transitions.

use std::sync::Arc;

use trmma_baselines::{FmmMatcher, HmmConfig, HmmMatcher, LinearRecovery, NearestMatcher};
use trmma_bench::harness::{
    eval_recovery, eval_recovery_batch, per_1000, trained_mma, trained_seq2seq, trained_trmma,
    ExpConfig,
};
use trmma_bench::report::pct;
use trmma_core::{mma::SharedMma, BatchOptions, BatchRecovery, TrmmaPipeline};
use trmma_traj::TrajectoryRecovery;

use crate::{Figure, Row};

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "fig5_recovery_inference",
        header: "== Fig. 5: recovery inference time (s / 1000 trajectories) ==".into(),
        columns: &["Dataset", "Method", "s/1k", "Accuracy"],
        expected: "Expected shape (paper Fig. 5): TRMMA much faster than Seq2SeqFull at equal-or-better accuracy; the batch engine divides TRMMA's time by roughly the core count.",
    }
    .run(cfg, |bundle, table, json| {
        let eps = bundle.ds.epsilon_s;

        let near = NearestMatcher::new(bundle.net.clone(), bundle.planner.clone());
        let near_lin = LinearRecovery::new(bundle.net.clone(), near, "Nearest+Lin");
        let hmm = HmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let hmm_lin = LinearRecovery::new(bundle.net.clone(), hmm, "HMM+Lin");
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let fmm_lin = LinearRecovery::new(bundle.net.clone(), fmm, "Linear");
        let (seq2seq, _) = trained_seq2seq(&bundle, cfg.seq2seq_config(), cfg.epochs.min(3));
        let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs.min(3));
        let mma = Arc::new(mma);
        let (trmma, _) = trained_trmma(&bundle, cfg.trmma_config(), cfg.epochs.min(3));
        let pipeline = TrmmaPipeline::new(Box::new(SharedMma(mma.clone())), trmma, "TRMMA");

        let methods: Vec<&dyn TrajectoryRecovery> =
            vec![&near_lin, &hmm_lin, &fmm_lin, &seq2seq, &pipeline];
        let mut rows: Vec<_> = methods
            .into_iter()
            .map(|m| (m.name().to_string(), eval_recovery(&bundle.net, m, &bundle.test, eps)))
            .collect();

        // The batched engine over the same trained models: identical output,
        // all cores, per-worker scratch reuse.
        let (_, trmma) = pipeline.into_parts();
        let engine = BatchRecovery::new(mma, Arc::new(trmma), BatchOptions::default());
        let batch = eval_recovery_batch(&bundle.net, &engine, &bundle.test, eps);
        rows.push(("TRMMA (batch)".into(), batch));
        for (name, (metrics, secs)) in rows {
            let s1k = per_1000(secs, bundle.test.len());
            Row::default()
                .field("dataset", &bundle.ds.name, &bundle.ds.name)
                .field("method", &name, &name)
                .field("sec_per_1000", &s1k, format!("{s1k:.3}"))
                .field("accuracy", &metrics.accuracy, pct(metrics.accuracy))
                .push(table, json);
        }
    });
}
