//! Fig. 6: training time per epoch of the learned recovery methods.
//!
//! Expected shape: TRMMA trains much faster per epoch than the
//! full-network seq2seq baseline — the loss of Eq. 19 touches only the
//! `ℓ_R` route segments per missing point, whereas the baseline's softmax
//! touches all `|E|` segments.

use trmma_bench::harness::{trained_seq2seq, trained_trmma, ExpConfig};
use trmma_bench::report::secs;

use crate::{Figure, Row};

pub(crate) fn run(cfg: &ExpConfig) {
    Figure {
        name: "fig6_recovery_training",
        header: "== Fig. 6: recovery training time per epoch (s) ==".into(),
        columns: &["Dataset", "Method", "s/epoch", "final loss", "#weights"],
        expected: "Expected shape (paper Fig. 6): TRMMA trains faster per epoch than the |E|-softmax baseline.",
    }
    .run(cfg, |bundle, table, json| {
        let (seq2seq, rep_s) = trained_seq2seq(&bundle, cfg.seq2seq_config(), cfg.epochs);
        let (trmma, rep_t) = trained_trmma(&bundle, cfg.trmma_config(), cfg.epochs);
        for (name, rep, weights) in
            [("Seq2SeqFull", &rep_s, seq2seq.num_weights()), ("TRMMA", &rep_t, trmma.num_weights())]
        {
            let sec_per_epoch = rep.mean_epoch_time_s();
            Row::default()
                .field("dataset", &bundle.ds.name, &bundle.ds.name)
                .field("method", name, name)
                .field("sec_per_epoch", &sec_per_epoch, secs(sec_per_epoch))
                .field("epoch_losses", &rep.epoch_losses, format!("{:.4}", rep.final_loss()))
                .field("num_weights", &weights, weights)
                .push(table, json);
        }
    });
}
