//! Fig. 7: recovery accuracy under varied sparsity γ ∈ {0.1 … 0.5}.
//!
//! Smaller γ = sparser input (interval ε/γ). Expected shape: every
//! method's accuracy degrades as γ shrinks; TRMMA stays on top across the
//! whole sweep.

use std::sync::Arc;

use trmma_baselines::{FmmMatcher, HmmConfig, LinearRecovery};
use trmma_bench::harness::{eval_recovery, trained_mma, trained_trmma, ExpConfig};
use trmma_bench::report::Table;
use trmma_bench::{json, Value};
use trmma_core::{BatchOptions, BatchRecovery};

use crate::Figure;

/// The sparsity levels both sweeps (Figs. 7 and 11) evaluate.
pub(crate) const GAMMAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// The sparsity levels both sweeps train on: a model trained at γ = 0.1
/// alone would face a distribution shift at γ = 0.5 (gap lengths are part
/// of its decoder features).
pub(crate) const TRAIN_GAMMAS: [f64; 3] = [0.1, 0.3, 0.5];

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "fig7_sparsity",
        header: "== Fig. 7: recovery accuracy vs sparsity gamma ==".into(),
        columns: &["Dataset", "Method", "g=0.1", "g=0.2", "g=0.3", "g=0.4", "g=0.5"],
        expected: "Expected shape (paper Fig. 7): accuracy rises with gamma; TRMMA dominates at every gamma.",
    }
    .run(cfg, |mut bundle, table, json| {
        let eps = bundle.ds.epsilon_s;
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let linear = LinearRecovery::new(bundle.net.clone(), Arc::new(fmm), "Linear");
        bundle.train = bundle.resample(&TRAIN_GAMMAS).0;
        let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs);
        let (trmma, _) = trained_trmma(&bundle, cfg.trmma_config(), cfg.epochs);
        let pipeline = BatchRecovery::new(Arc::new(mma), Arc::new(trmma), BatchOptions::default());

        let (mut lin, mut trm) = (Vec::new(), Vec::new());
        for gamma in GAMMAS {
            let (_, test) = bundle.resample(&[gamma]);
            lin.push(eval_recovery(&bundle.net, &linear, &test, eps).0.accuracy);
            trm.push(eval_recovery(&bundle.net, &pipeline, &test, eps).0.accuracy);
        }
        sweep_row(table, json, &bundle.ds.name, "Linear", "accuracy", &lin);
        sweep_row(table, json, &bundle.ds.name, "TRMMA", "accuracy", &trm);
    });
}

/// One method's row of a sparsity sweep: `metric` at each of [`GAMMAS`].
pub(crate) fn sweep_row(
    table: &mut Table,
    json: &mut Vec<Value>,
    dataset: &str,
    method: &str,
    metric: &str,
    values: &[f64],
) {
    let mut cells = vec![dataset.to_string(), method.to_string()];
    cells.extend(values.iter().map(|v| format!("{v:.3}")));
    table.row(cells);
    json.push(Value::Object(vec![
        ("dataset".into(), json!(dataset)),
        ("method".into(), json!(method)),
        ("gammas".into(), json!(GAMMAS)),
        (metric.into(), json!(*values)),
    ]));
}
