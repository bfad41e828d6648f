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
use trmma_bench::harness::{
    eval_matching, eval_matching_pooled, per_1000, trained_mma, Bundle, ExpConfig,
};
use trmma_bench::report::{write_json, Table};
use trmma_core::BatchOptions;
use trmma_traj::MapMatcher;

fn main() {
    let cfg = ExpConfig::from_env();
    let opts = BatchOptions::default();
    println!("== Fig. 9: matching inference time (s / 1000 trajectories) ==\n");
    println!("(Nearest/HMM/FMM rows: pooled batch engine, all cores)\n");
    let mut table = Table::new(&["Dataset", "Method", "s/1k", "F1", "precompute(s)"]);
    let mut json = Vec::new();
    for dcfg in cfg.dataset_configs() {
        let bundle = Bundle::prepare(&dcfg, 0.1, cfg.mma_config().d0);
        let nearest = NearestMatcher::new(bundle.net.clone(), bundle.planner.clone());
        let hmm = HmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let fmm = FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), HmmConfig::default());
        let fmm_precompute = fmm.precompute_s;
        let (mma, _) = trained_mma(&bundle, cfg.mma_config(), cfg.epochs.min(3));

        let mut emit = |name: &str, metrics: trmma_traj::MatchingMetrics, secs: f64, pre: f64| {
            let s1k = per_1000(secs, bundle.test.len());
            table.row(vec![
                bundle.ds.name.clone(),
                name.into(),
                format!("{s1k:.3}"),
                format!("{:.2}", 100.0 * metrics.f1),
                format!("{pre:.2}"),
            ]);
            json.push(trmma_bench::json!({
                "dataset": bundle.ds.name,
                "method": name,
                "sec_per_1000": s1k,
                "f1": metrics.f1,
                "precompute_s": pre,
            }));
        };
        let (m, s) = eval_matching_pooled(&nearest, &bundle.test, opts);
        emit(nearest.name(), m, s, 0.0);
        let (m, s) = eval_matching_pooled(&hmm, &bundle.test, opts);
        emit(hmm.name(), m, s, 0.0);
        let (m, s) = eval_matching_pooled(&fmm, &bundle.test, opts);
        emit(fmm.name(), m, s, fmm_precompute);
        let (m, s) = eval_matching(&mma, &bundle.test);
        emit(mma.name(), m, s, 0.0);

        // The batched engine over the same trained matcher: identical
        // output, all cores, per-worker scratch reuse.
        let (m, s) = eval_matching_pooled(&mma, &bundle.test, opts);
        emit("MMA (batch)", m, s, 0.0);
    }
    table.print();
    println!("\nExpected shape (paper Fig. 9): MMA fastest at the best F1; FMM trades precompute for faster inference than HMM; the batch engine divides MMA's time by roughly the core count.");
    write_json("fig9_matching_inference", &trmma_bench::Value::Array(json));
}
