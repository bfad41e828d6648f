//! The one training loop. A model supplies its parameters and
//! `sample_loss(sample, backward)`: one sample's loss, back-propagated
//! into the parameters' gradients when `backward` is set, `None` when the
//! sample is unusable. [`fit`] owns the rest (DESIGN.md §17).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::optim::Adam;
use crate::param::Param;
use crate::serialize::{restore, snapshot};

/// Summary of one training run (epoch wall-times feed Figs. 6 and 10).
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_times_s: Vec<f64>,
    /// Validation loss after each epoch (empty without early stopping).
    pub val_losses: Vec<f64>,
}

impl TrainReport {
    /// Last epoch's mean loss.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }

    /// Mean seconds per epoch.
    #[must_use]
    pub fn mean_epoch_time_s(&self) -> f64 {
        if self.epoch_times_s.is_empty() {
            return 0.0;
        }
        self.epoch_times_s.iter().sum::<f64>() / self.epoch_times_s.len() as f64
    }
}

/// Mean forward-only loss over the usable samples; `None` when none is
/// usable (an empty slice, or every `sample_loss` returned `None`). Runs
/// no backward pass, so gradients gathered so far are left as they are.
pub fn validation_loss<S>(
    samples: &[S],
    sample_loss: impl Fn(&S, bool) -> Option<f64>,
) -> Option<f64> {
    let mut total = 0.0;
    let mut count = 0usize;
    for s in samples {
        if let Some(l) = sample_loss(s, false) {
            total += l;
            count += 1;
        }
    }
    (count > 0).then(|| total / count as f64)
}

/// Trains `params` for up to `epochs` epochs. Each epoch reshuffles
/// `train` (from `seed`) and accumulates gradients over `batch` usable
/// samples (`0` counts as 1), taking one Adam step at rate `lr` per batch
/// and one for the remainder. With `early_stop = Some((val, patience))`
/// it validates after every epoch, stops after `patience` epochs without a
/// new best, and restores the best epoch's weights.
///
/// Every call starts a fresh shuffle and a fresh Adam, so `k` epochs are
/// the first `k` of any longer run: an early-stopped run leaves, bit for
/// bit, the weights of a plain run as long as its best epoch.
///
/// # Panics
/// Panics naming `val.len()` if no validation sample is usable: no epoch
/// could count as the best, and the untrained weights would come back.
#[allow(clippy::too_many_arguments)]
pub fn fit<S>(
    params: &[Param],
    sample_loss: impl Fn(&S, bool) -> Option<f64>,
    train: &[S],
    early_stop: Option<(&[S], usize)>,
    epochs: usize,
    lr: f64,
    batch: usize,
    seed: u64,
) -> TrainReport {
    let batch = batch.max(1);
    let mut opt = Adam::new(params.to_vec(), lr);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut report = TrainReport::default();
    let mut best = f64::INFINITY;
    let mut best_weights = early_stop.map(|_| snapshot(params));
    let mut bad = 0usize;
    for _epoch in 0..epochs {
        let started = Instant::now();
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        let mut count = 0usize;
        opt.zero_grad();
        for &si in &order {
            let Some(loss) = sample_loss(&train[si], true) else { continue };
            loss_sum += loss;
            count += 1;
            if count.is_multiple_of(batch) {
                opt.step();
                opt.zero_grad();
            }
        }
        if !count.is_multiple_of(batch) {
            opt.step();
            opt.zero_grad();
        }
        report.epoch_losses.push(loss_sum / count.max(1) as f64);
        report.epoch_times_s.push(started.elapsed().as_secs_f64());

        let Some((val, patience)) = early_stop else { continue };
        let vl = validation_loss(val, &sample_loss).unwrap_or_else(|| {
            panic!(
                "early stopping needs a usable validation sample, but none of val.len() = {} is",
                val.len()
            )
        });
        report.val_losses.push(vl);
        if vl < best {
            best = vl;
            best_weights = Some(snapshot(params));
            bad = 0;
        } else {
            bad += 1;
            if bad > patience {
                break;
            }
        }
    }
    if let Some(weights) = best_weights {
        restore(params, &weights);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::matrix::Matrix;
    use rand::Rng;

    /// A toy regression sample; `usable = false` makes `sample_loss`
    /// return `None`, as an empty trajectory does for the real models.
    #[derive(Clone)]
    struct Toy {
        x: [f64; 3],
        y: f64,
        usable: bool,
    }

    fn toy_samples(n: usize, seed: u64) -> Vec<Toy> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x =
                    [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
                let y = 0.5 * x[0] - 1.5 * x[1] + 0.25 * x[2] + rng.gen_range(-0.3..0.3);
                Toy { x, y, usable: rng.gen_range(0.0..1.0) > 0.25 }
            })
            .collect()
    }

    fn toy_params(seed: u64) -> Vec<Param> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![
            Param::new(3, 1, crate::param::Init::Xavier, &mut rng),
            Param::new(1, 1, crate::param::Init::Uniform(0.5), &mut rng),
        ]
    }

    /// Squared error of a linear model, back-propagated when asked.
    fn toy_loss(params: &[Param], s: &Toy, backward: bool) -> Option<f64> {
        if !s.usable {
            return None;
        }
        let mut g = Graph::new();
        let w = g.param(&params[0]);
        let b = g.param(&params[1]);
        let x = g.input(Matrix::row_vec(s.x.to_vec()));
        let xw = g.matmul(x, w);
        let pred = g.add(xw, b);
        let err = g.add_scalar(pred, -s.y);
        let sq = g.mul(err, err);
        let loss = g.sum_all(sq);
        if backward {
            g.backward(loss);
        }
        Some(g.value(loss).get(0, 0))
    }

    fn weight_bits(params: &[Param]) -> Vec<u64> {
        params.iter().flat_map(|p| p.value().data().to_vec()).map(f64::to_bits).collect()
    }

    /// The loop as `Mma` and `Trmma` each ran it before [`fit`] existed,
    /// kept verbatim (`run_epoch` and the early-stopping loop around it):
    /// the sequential reference [`fit`] must match bit for bit, and a
    /// parallel reduction later must too.
    mod reference {
        use super::*;

        fn run_epoch(
            params: &[Param],
            samples: &[Toy],
            order: &[usize],
            opt: &mut Adam,
            batch_size: usize,
        ) -> f64 {
            let batch = batch_size.max(1);
            let mut loss_sum = 0.0;
            let mut count = 0usize;
            let mut in_batch = 0usize;
            opt.zero_grad();
            for &si in order {
                if let Some(loss) = toy_loss(params, &samples[si], true) {
                    loss_sum += loss;
                    count += 1;
                    in_batch += 1;
                    if in_batch == batch {
                        opt.step();
                        opt.zero_grad();
                        in_batch = 0;
                    }
                }
            }
            if in_batch > 0 {
                opt.step();
                opt.zero_grad();
            }
            loss_sum / count.max(1) as f64
        }

        fn validation_loss(params: &[Param], samples: &[Toy]) -> f64 {
            let mut total = 0.0;
            let mut count = 0usize;
            for s in samples {
                if let Some(l) = toy_loss(params, s, false) {
                    total += l;
                    count += 1;
                }
            }
            total / count.max(1) as f64
        }

        pub fn train(
            params: &[Param],
            samples: &[Toy],
            epochs: usize,
            lr: f64,
            batch: usize,
            seed: u64,
        ) -> Vec<f64> {
            let mut opt = Adam::new(params.to_vec(), lr);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..samples.len()).collect();
            let mut losses = Vec::new();
            for _epoch in 0..epochs {
                order.shuffle(&mut rng);
                losses.push(run_epoch(params, samples, &order, &mut opt, batch));
            }
            losses
        }

        #[allow(clippy::too_many_arguments)]
        pub fn train_early_stop(
            params: &[Param],
            train: &[Toy],
            val: &[Toy],
            max_epochs: usize,
            patience: usize,
            lr: f64,
            batch: usize,
            seed: u64,
        ) -> Vec<f64> {
            let mut opt = Adam::new(params.to_vec(), lr);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..train.len()).collect();
            let mut losses = Vec::new();
            let mut best = f64::INFINITY;
            let mut best_weights = snapshot(params);
            let mut bad = 0usize;
            for _epoch in 0..max_epochs {
                order.shuffle(&mut rng);
                losses.push(run_epoch(params, train, &order, &mut opt, batch));
                let vl = validation_loss(params, val);
                if vl < best {
                    best = vl;
                    best_weights = snapshot(params);
                    bad = 0;
                } else {
                    bad += 1;
                    if bad > patience {
                        break;
                    }
                }
            }
            restore(params, &best_weights);
            losses
        }
    }

    #[test]
    fn fit_matches_the_sequential_reference_bit_for_bit() {
        // A high learning rate makes validation loss wander, so patience
        // actually cuts some runs short.
        let lr = 0.3;
        let mut stopped_early = 0;
        for seed in [1u64, 7, 42] {
            let train = toy_samples(13, seed);
            let val = toy_samples(5, seed + 100);
            for batch in [1usize, 2, 5] {
                let (a, b) = (toy_params(seed), toy_params(seed));
                let ref_losses = reference::train(&a, &train, 6, lr, batch, seed);
                let report = fit(&b, |s, bw| toy_loss(&b, s, bw), &train, None, 6, lr, batch, seed);
                assert_eq!(weight_bits(&a), weight_bits(&b), "seed {seed} batch {batch}");
                assert_eq!(ref_losses, report.epoch_losses);
                for patience in [0usize, 1, 3] {
                    let (a, b) = (toy_params(seed), toy_params(seed));
                    let ref_losses = reference::train_early_stop(
                        &a, &train, &val, 12, patience, lr, batch, seed,
                    );
                    let report = fit(
                        &b,
                        |s, bw| toy_loss(&b, s, bw),
                        &train,
                        Some((&val, patience)),
                        12,
                        lr,
                        batch,
                        seed,
                    );
                    let case = format!("seed {seed} batch {batch} patience {patience}");
                    assert_eq!(weight_bits(&a), weight_bits(&b), "{case}");
                    assert_eq!(ref_losses, report.epoch_losses, "{case}");
                    stopped_early += usize::from(report.epoch_losses.len() < 12);
                }
            }
        }
        assert!(stopped_early > 0, "no run exercised patience");
    }

    #[test]
    fn validation_is_forward_only_and_none_when_nothing_is_usable() {
        let params = toy_params(3);
        let samples = toy_samples(6, 3);
        params[0].accumulate_grad(&Matrix::from_vec(3, 1, vec![1.0, -2.0, 0.5]));
        let before: Vec<Matrix> = params.iter().map(Param::grad).collect();
        let vl = validation_loss(&samples, |s, bw| toy_loss(&params, s, bw));
        assert!(vl.is_some_and(f64::is_finite));
        let after: Vec<Matrix> = params.iter().map(Param::grad).collect();
        assert_eq!(before, after, "validation must leave gradients alone");

        assert!(validation_loss(&[] as &[Toy], |s, bw| toy_loss(&params, s, bw)).is_none());
        let unusable: Vec<Toy> = samples.into_iter().map(|s| Toy { usable: false, ..s }).collect();
        assert!(validation_loss(&unusable, |s, bw| toy_loss(&params, s, bw)).is_none());
    }

    #[test]
    fn early_stopping_refuses_an_unusable_validation_set() {
        let train = toy_samples(8, 5);
        let unusable: Vec<Toy> =
            toy_samples(4, 6).into_iter().map(|s| Toy { usable: false, ..s }).collect();
        for (val, n) in [(&[] as &[Toy], 0usize), (&unusable[..], 4)] {
            let params = toy_params(5);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fit(
                    &params,
                    |s, bw| toy_loss(&params, s, bw),
                    &train,
                    Some((val, 2)),
                    10,
                    0.1,
                    2,
                    5,
                )
            }))
            .expect_err("an unusable validation set must be refused");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains(&format!("val.len() = {n}")) && msg.contains("usable"), "{msg}");
        }
    }
}
