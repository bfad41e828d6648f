//! Table IV: ablation study of TRMMA, reporting recovery accuracy (%).
//!
//! Rows (paper nomenclature):
//! * `TRMMA`         — full system (MMA matcher, DualFormer, directions,
//!   candidate context);
//! * `TRMMA-HMM`     — matcher swapped for the classic HMM;
//! * `TRMMA-Near`    — matcher swapped for nearest-segment;
//! * `MMA+linear`    — MMA matching, linear interpolation instead of the
//!   learned decoder;
//! * `Nearest+linear`— nearest matching + linear interpolation;
//! * `TRMMA-DF`      — DualFormer fusion disabled (`H = R`);
//! * `TRMMA-C`       — candidate-context attention removed from MMA;
//! * `TRMMA-DI`      — directional cosine features removed from MMA.
//!
//! Expected shape: the full TRMMA tops every column; each ablation costs
//! accuracy.

use std::sync::Arc;

use trmma_baselines::{HmmConfig, HmmMatcher, LinearRecovery, NearestMatcher};
use trmma_bench::harness::{eval_recovery, trained_mma, trained_trmma, ExpConfig};
use trmma_bench::json;
use trmma_core::mma::SharedMma;
use trmma_core::{MmaConfig, Trmma, TrmmaConfig, TrmmaPipeline};
use trmma_traj::TrajectoryRecovery;

use crate::Figure;

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "table4_ablation",
        header: "== Table IV: TRMMA ablations (accuracy %) ==".into(),
        columns: &["Method", "Dataset", "Accuracy"],
        expected: "Expected shape (paper Table IV): full TRMMA on top, every ablation below it.",
    }
    .run(cfg, |bundle, table, json| {
        let (eps, epochs) = (bundle.ds.epsilon_s, cfg.epochs);

        // Matchers. Each distinct configuration trains once; the rows that
        // share a configuration share its weights.
        let mk_hmm =
            || HmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let mk_near = || NearestMatcher::new(bundle.net.clone(), bundle.planner.clone());
        let mma = |config| SharedMma(Arc::new(trained_mma(&bundle, config, epochs).0));
        let mma_full = mma(cfg.mma_config());
        let mma_no_ctx = mma(MmaConfig { use_candidate_context: false, ..cfg.mma_config() });
        let mma_no_dir = mma(MmaConfig { use_direction: false, ..cfg.mma_config() });

        // Recovery models: the full configuration is trained once and
        // copied into each pipeline that uses it.
        let trmma = |config| trained_trmma(&bundle, config, epochs).0;
        let full_weights = trmma(cfg.trmma_config()).save_weights();
        let trmma_full = || {
            let mut model = Trmma::new(bundle.net.clone(), cfg.trmma_config());
            model.load_weights(&full_weights).expect("same configuration");
            model
        };
        let trmma_no_df = trmma(TrmmaConfig { use_dualformer: false, ..cfg.trmma_config() });

        let methods: Vec<Box<dyn TrajectoryRecovery>> = vec![
            Box::new(TrmmaPipeline::new(Box::new(mma_full.clone()), trmma_full(), "TRMMA")),
            Box::new(TrmmaPipeline::new(Box::new(mk_hmm()), trmma_full(), "TRMMA-HMM")),
            Box::new(TrmmaPipeline::new(Box::new(mk_near()), trmma_full(), "TRMMA-Near")),
            Box::new(LinearRecovery::new(bundle.net.clone(), mma_full.clone(), "MMA+linear")),
            Box::new(LinearRecovery::new(bundle.net.clone(), mk_near(), "Nearest+linear")),
            Box::new(TrmmaPipeline::new(Box::new(mma_full), trmma_no_df, "TRMMA-DF")),
            Box::new(TrmmaPipeline::new(Box::new(mma_no_ctx), trmma_full(), "TRMMA-C")),
            Box::new(TrmmaPipeline::new(Box::new(mma_no_dir), trmma_full(), "TRMMA-DI")),
        ];
        for m in &methods {
            let (metrics, _) = eval_recovery(&bundle.net, m.as_ref(), &bundle.test, eps);
            table.row(vec![
                m.name().into(),
                bundle.ds.name.clone(),
                format!("{:.2}", 100.0 * metrics.accuracy),
            ]);
            json.push(json!({
                "dataset": bundle.ds.name,
                "method": m.name(),
                "accuracy": metrics.accuracy,
            }));
        }
    });
}
