//! Diagnostic: MMA point-accuracy convergence and candidate coverage.
//! Not part of the paper's tables; used to tune training defaults.

use trmma_bench::harness::{trained_mma, Bundle, ExpConfig};
use trmma_core::Mma;

use crate::fig2_candidates::coverage_by_kc;

pub(crate) fn run(cfg: &ExpConfig) {
    let dcfg = &cfg.dataset_configs()[0];
    let bundle = Bundle::prepare(dcfg, 0.1, cfg.mma_config().d0);

    // Candidate coverage at kc=10 (upper bound for MMA's point accuracy).
    let (coverage, total) = coverage_by_kc(&bundle.net, &bundle.test);
    println!(
        "coverage@10 = {:.3}, nearest-hit = {:.3} ({} points)",
        coverage[9], coverage[0], total
    );

    let (mut mma, _) = trained_mma(&bundle, cfg.mma_config(), 0);
    let acc = |m: &Mma| -> f64 {
        let mut hit = 0usize;
        let mut twin_err = 0usize;
        let mut tot = 0usize;
        for s in &bundle.test {
            for (mp, t) in m.match_points(&s.sparse).iter().zip(&s.sparse_truth) {
                if mp.seg == t.seg {
                    hit += 1;
                } else if bundle.net.reverse_twin(mp.seg) == Some(t.seg) {
                    twin_err += 1;
                }
                tot += 1;
            }
        }
        let errs = tot - hit;
        let twin_pct = (100 * twin_err).checked_div(errs).unwrap_or(0);
        eprintln!("   errors: {errs} total, {twin_err} reverse-twin ({twin_pct}%)");
        hit as f64 / tot.max(1) as f64
    };
    println!("epoch 0: point-acc {:.3}", acc(&mma));
    for round in 1..=(cfg.epochs / 2).max(1) {
        let rep = mma.train(&bundle.train, 2);
        println!(
            "epoch {}: point-acc {:.3} (loss {:.4}, {:.1}s/epoch)",
            round * 2,
            acc(&mma),
            rep.final_loss(),
            rep.mean_epoch_time_s()
        );
    }
}
