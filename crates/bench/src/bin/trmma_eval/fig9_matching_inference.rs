//! Fig. 9: map-matching inference time per 1000 trajectories (seconds).
//!
//! Expected shape: MMA fastest among learned/probabilistic matchers — one
//! R-tree query plus a kc-way scoring per point, no per-transition
//! shortest-path search; FMM beats HMM thanks to the UBODT.
//!
//! The baseline rows (Nearest/HMM/FMM) run through the pooled batch engine
//! (`par_match_pooled`: scoped worker threads, one reused `SsspPool` per
//! worker, shared UBODT for FMM) — the timing is the parallel
//! wall-clock, the output is identical to the sequential per-call API. The
//! plain `MMA` row stays on the sequential per-call API so the adjacent
//! `MMA (batch)` row still shows the engine's win over it.

use trmma_baselines::{FmmMatcher, HmmConfig, HmmMatcher, NearestMatcher};
use trmma_bench::harness::{eval_matching, eval_matching_pooled, per_1000, trained_mma, ExpConfig};
use trmma_bench::report::{pct, secs};
use trmma_core::BatchOptions;
use trmma_traj::MapMatcher;

use crate::{Figure, Row};

pub(crate) fn run(cfg: &ExpConfig) {
    let opts = BatchOptions::default();
    Figure {
        name: "fig9_matching_inference",
        header: "== Fig. 9: matching inference time (s / 1000 trajectories) ==\n\n\
            (Nearest/HMM/FMM rows: pooled batch engine, all cores)"
            .into(),
        columns: &["Dataset", "Method", "s/1k", "F1", "precompute(s)"],
        expected: "Expected shape (paper Fig. 9): MMA fastest at the best F1; FMM trades precompute for faster inference than HMM; the batch engine divides MMA's time by roughly the core count.",
    }
    .run(cfg, |bundle, table, json| {
        let nearest = NearestMatcher::new(bundle.net.clone(), bundle.planner.clone());
        let hmm = HmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs.min(3));

        for (name, (metrics, infer_s), precompute_s) in [
            (nearest.name(), eval_matching_pooled(&nearest, &bundle.test, opts), 0.0),
            (hmm.name(), eval_matching_pooled(&hmm, &bundle.test, opts), 0.0),
            (fmm.name(), eval_matching_pooled(&fmm, &bundle.test, opts), fmm.precompute_s),
            (mma.name(), eval_matching(&mma, &bundle.test), 0.0),
            // The batched engine over the same trained matcher: identical
            // output, all cores, per-worker scratch reuse.
            ("MMA (batch)", eval_matching_pooled(&mma, &bundle.test, opts), 0.0),
        ] {
            let s1k = per_1000(infer_s, bundle.test.len());
            Row::default()
                .field("dataset", &bundle.ds.name, &bundle.ds.name)
                .field("method", name, name)
                .field("sec_per_1000", &s1k, format!("{s1k:.3}"))
                .field("f1", &metrics.f1, pct(metrics.f1))
                .field("precompute_s", &precompute_s, secs(precompute_s))
                .push(table, json);
        }
    });
}
