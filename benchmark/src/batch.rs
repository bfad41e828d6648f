//! The five batch workloads: P identical passes of the real entry point
//! (`par_match_pooled` / `BatchRecovery::recover_batch_timed`), then an
//! untimed verification against a separately stood-up instance.

use std::borrow::Borrow;
use std::time::{Duration, Instant};

use trmma_core::{par_match_pooled, BatchOptions, BatchRecovery, BatchTiming};
use trmma_traj::metrics::matching_metrics;
use trmma_traj::{MapMatcher, MatchResult, MatchedTrajectory, Route, Sample, Trajectory};

use crate::fixture::{Eval, Fixture, EPSILON_S};
use crate::host;
use crate::measure::{Measured, Pass};
use crate::setup::{setup, Pipeline, Served, Workload};

/// Fewest passes a timed phase runs, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Most trajectories the sequential API re-decodes during verification
/// (a quarter of the batch when that is fewer).
const SEQ_SAMPLE: usize = 200;

/// Runs `pass` until `seconds` have gone by (at least [`MIN_PASSES`] times,
/// at most `max_passes` when that is not 0). Outputs of every pass are
/// compared with the first pass's; each difference is a failed operation.
fn timed_passes<O: PartialEq>(
    seconds: f64,
    max_passes: usize,
    points: usize,
    mut pass: impl FnMut() -> (Vec<O>, BatchTiming),
) -> (Vec<O>, Vec<Pass>, u64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first: Option<Vec<O>> = None;
    let mut passes = Vec::new();
    let mut failed = 0u64;
    loop {
        let (out, timing) = pass();
        passes.push(Pass { points, wall_s: timing.wall_s, op_s: timing.per_item_s });
        match &first {
            None => first = Some(out),
            Some(f) => failed += f.iter().zip(&out).filter(|(a, b)| a != b).count() as u64,
        }
        let capped = max_passes != 0 && passes.len() >= max_passes;
        if capped || (passes.len() >= MIN_PASSES && Instant::now() >= deadline) {
            break;
        }
    }
    (first.expect("at least one pass ran"), passes, failed)
}

/// The verification sample: indices spread evenly over `0..n`.
fn sample_indices(n: usize) -> Vec<usize> {
    let k = SEQ_SAMPLE.min(n.div_ceil(4));
    (0..k).map(|i| i * n / k).collect()
}

/// Segment-set F1 of a recovered trajectory against the generator's dense
/// truth (the F1 of `trmma_traj::recovery_metrics`, without its MAE).
fn recovered_f1(rec: &MatchedTrajectory, truth: &Sample) -> f64 {
    matching_metrics(&Route::new(rec.segment_run()), &Route::new(truth.dense_truth.segment_run()))
        .f1
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len();
    xs.sum::<f64>() / n as f64
}

/// `matcher_for_pass` hands each pass its matcher: the served one by
/// reference, or (cold) a freshly built one by value.
fn matcher_workload<M: trmma_traj::ScratchMatcher + Sync, B: Borrow<M>>(
    fx: &Fixture,
    seconds: f64,
    batch: &[Trajectory],
    samples: &[Sample],
    mut matcher_for_pass: impl FnMut() -> B,
    reference: &M,
) -> Measured {
    let opts = BatchOptions::with_threads(host::batch_threads());
    let points = batch.iter().map(Trajectory::len).sum();
    let (first, passes, mut failed) =
        timed_passes::<MatchResult>(seconds, fx.profile.max_passes, points, || {
            // Built before the pass clock starts (`BatchTiming::wall_s`
            // covers the fan-out only).
            let m = matcher_for_pass();
            par_match_pooled(m.borrow(), batch, opts)
        });
    let peak_rss_mb = host::peak_rss_mb();
    for i in sample_indices(batch.len()) {
        failed += u64::from(reference.match_trajectory(&batch[i]) != first[i]);
    }
    let seg_f1 =
        mean(first.iter().zip(samples).map(|(r, s)| matching_metrics(&r.route, &s.route).f1));
    let attempted = (passes.len() * batch.len()) as u64;
    Measured { passes, attempted, failed: failed.min(attempted), seg_f1, peak_rss_mb }
}

/// Runs one batch workload: the timed phase on `served`, the verification
/// on `reference` — a second, separately stood-up instance, so no cache the
/// timed phase warmed can answer for it.
pub fn run(
    workload: Workload,
    fx: &Fixture,
    eval: &Eval,
    served: &Served,
    seconds: f64,
) -> Measured {
    host::assert_threads_fit(workload.name(), host::batch_threads());
    let reference = setup(workload, fx);
    let n =
        if workload == Workload::MatchHmmSharded { fx.profile.sharded_n } else { eval.batch.len() };
    let (batch, samples) = (&eval.batch[..n], &eval.samples[..n]);
    match (&served.pipeline, &reference.pipeline) {
        (Pipeline::Mma(m), Pipeline::Mma(r)) => {
            matcher_workload(fx, seconds, batch, samples, || &**m, &**r)
        }
        (Pipeline::Fmm(m), Pipeline::Fmm(r)) => {
            matcher_workload(fx, seconds, batch, samples, || &**m, &**r)
        }
        (Pipeline::Hmm(m), Pipeline::Hmm(r)) if workload == Workload::MatchHmmSharded => {
            matcher_workload(fx, seconds, batch, samples, || m, r)
        }
        (Pipeline::Hmm(_), Pipeline::Hmm(r)) => {
            // Cold: a fresh matcher — an empty `DistCache` — for every pass.
            matcher_workload(fx, seconds, batch, samples, || served.cold_hmm(&fx.profile), r)
        }
        (Pipeline::Recovery(mma, trmma), Pipeline::Recovery(ref_mma, ref_trmma)) => {
            let opts = BatchOptions::with_threads(host::batch_threads());
            let engine = BatchRecovery::new(mma.clone(), trmma.clone(), opts);
            let points = eval.points(n);
            let (first, passes, mut failed) =
                timed_passes(seconds, fx.profile.max_passes, points, || {
                    engine.recover_batch_timed(batch, EPSILON_S)
                });
            let peak_rss_mb = host::peak_rss_mb();
            for i in sample_indices(n) {
                let m = ref_mma.match_trajectory(&batch[i]);
                let seq = ref_trmma.recover_from_match(&batch[i], &m.matched, &m.route, EPSILON_S);
                failed += u64::from(seq != first[i]);
            }
            let seg_f1 = mean(first.iter().zip(samples).map(|(rec, s)| recovered_f1(rec, s)));
            let attempted = (passes.len() * n) as u64;
            Measured { passes, attempted, failed: failed.min(attempted), seg_f1, peak_rss_mb }
        }
        _ => unreachable!("{} is not a batch workload", workload.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_loop_runs_at_least_three_and_counts_drift() {
        let mut calls = 0;
        let (first, passes, failed) = timed_passes(0.0, 0, 10, || {
            calls += 1;
            // The third pass disagrees with the first on one item.
            let out = if calls == 3 { vec![1, 9] } else { vec![1, 2] };
            (out, BatchTiming { per_item_s: vec![0.1, 0.2], wall_s: 0.3, allocs_avoided: 0 })
        });
        assert_eq!((first, passes.len(), failed), (vec![1, 2], MIN_PASSES, 1));
        let (_, passes, _) = timed_passes(60.0, 1, 10, || (vec![0], BatchTiming::default()));
        assert_eq!(passes.len(), 1, "the smoke cap wins over the clock");
    }

    #[test]
    fn sample_is_spread_and_bounded() {
        assert_eq!(sample_indices(3), vec![0]);
        assert_eq!(sample_indices(160).len(), 40);
        let s = sample_indices(2000);
        assert_eq!((s.len(), s[0], s[199]), (200, 0, 1990));
    }
}
