//! Batched, parallel inference over many trajectories.
//!
//! The paper's headline claim is *efficiency*: MMA and TRMMA beat prior
//! matchers/recovery models on inference throughput. Serving one trajectory
//! at a time through an allocation-heavy path leaves most of that on the
//! table, so this module adds the production-shaped entry points:
//!
//! * [`par_match_pooled`] — map-matches a `&[Trajectory]` across a worker
//!   pool sharing one immutable [`OnlineMatcher`] ([`Mma`] or a baseline),
//!   one scratch per worker;
//! * [`BatchRecovery`] — the one recovery pipeline, any matcher feeding
//!   TRMMA, over a batch or (as a [`TrajectoryRecovery`]) one trajectory.
//!
//! **Sharing/ownership model.** Workers are `std::thread::scope` threads
//! pulling indices from one atomic counter (work stealing by construction:
//! a worker stuck on a long trajectory simply claims fewer indices). The
//! model, R-tree and route planner are shared behind `Arc` and never
//! written during inference; every mutable buffer — the k-NN heaps, the
//! flat forward-only workspace of MMA and its encoder, the `Graph` that
//! holds TRMMA's bound decoder weights — lives in a per-worker scratch
//! (the matcher's [`OnlineMatcher::Scratch`], such as [`MmaScratch`], plus
//! TRMMA's `Graph` in [`BatchRecovery`]) created once per thread and
//! reused for every trajectory that thread claims. No distance cache is
//! involved: route stitching plans each gap through the shared
//! [`trmma_roadnet::RoutePlanner`], whose searches keep their own
//! per-thread buffers.
//!
//! **Determinism.** Inference is a pure function of (model, trajectory), so
//! results are written back by input index and are bitwise-identical for
//! any thread count and any input order — property-tested in this module
//! and in `tests/props_batch.rs`.
//!
//! [`Mma`]: crate::Mma
//! [`MmaScratch`]: crate::MmaScratch

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use trmma_nn::Graph;
use trmma_traj::api::{assert_recoverable, MatchResult, TrajectoryRecovery};
use trmma_traj::online::OnlineMatcher;
use trmma_traj::types::{MatchedTrajectory, Trajectory};

use crate::trmma::Trmma;

/// Tuning knobs of the batch engine. The default (`threads: 0`) sizes the
/// pool from [`std::thread::available_parallelism`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` uses [`std::thread::available_parallelism`].
    pub threads: usize,
}

impl BatchOptions {
    /// An explicit thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The effective worker count for a batch of `n` items.
    #[must_use]
    pub fn effective_threads(&self, n: usize) -> usize {
        let hw = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        hw.max(1).min(n.max(1))
    }
}

/// Per-item wall-clock seconds plus the batch total, as measured inside the
/// workers — the raw material for throughput / p50 / p99 reporting.
#[derive(Debug, Clone, Default)]
pub struct BatchTiming {
    /// Seconds spent on each item, indexed like the input batch.
    pub per_item_s: Vec<f64>,
    /// Wall-clock seconds for the whole batch (fan-out to join).
    pub wall_s: f64,
    /// Heap allocations absorbed by the per-worker scratch arenas over the
    /// batch (summed across workers; see [`OnlineMatcher::allocs_avoided`]).
    pub allocs_avoided: u64,
}

/// Fans `items` out over `threads` workers, each with its own scratch state
/// from `make_state`, preserving input order in the output and timing each
/// item. Each worker's retiring scratch is folded through `finish` and the
/// results summed — how per-worker counters (arena reuse and the like)
/// surface without any cross-thread traffic on the hot path.
///
/// The core loop of the engine; everything public in this module is a thin
/// wrapper choosing the state type and the per-item function.
fn timed_map<T, R, S, FS, F, FF>(
    items: &[T],
    threads: usize,
    make_state: FS,
    f: F,
    finish: FF,
) -> (Vec<R>, BatchTiming)
where
    T: Sync,
    R: Send,
    S: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
    FF: Fn(&S) -> u64 + Sync,
{
    let started = std::time::Instant::now();
    let timed = |state: &mut S, item: &T| {
        let t0 = std::time::Instant::now();
        let r = f(state, item);
        (r, t0.elapsed().as_secs_f64())
    };
    let n = items.len();
    let (pairs, allocs_avoided): (Vec<(R, f64)>, u64) = if threads <= 1 || n <= 1 {
        let mut state = make_state();
        let out = items.iter().map(|item| timed(&mut state, item)).collect();
        (out, finish(&state))
    } else {
        // When workers outnumber cores, a worker that never blocks loses
        // the core *mid-item* for a full scheduler timeslice — several
        // milliseconds charged to whichever unlucky trajectory it was on,
        // the dominant p99 spike of oversubscribed runs. Yielding between
        // items moves those preemptions to item boundaries, where they cost
        // no measured latency. With threads <= cores the yield is a no-op.
        let oversubscribed =
            threads > std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let next = AtomicUsize::new(0);
        let buckets: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = make_state();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, timed(&mut state, &items[i])));
                            if oversubscribed {
                                std::thread::yield_now();
                            }
                        }
                        (local, finish(&state))
                    })
                })
                .collect();
            // A worker's panic reaches the caller with its own payload, as
            // it would on the sequential path.
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
        });
        let mut out: Vec<Option<(R, f64)>> = (0..n).map(|_| None).collect();
        let mut stat = 0u64;
        for (bucket, s) in buckets {
            stat += s;
            for (i, r) in bucket {
                out[i] = Some(r);
            }
        }
        let out =
            out.into_iter().map(|r| r.expect("every index is claimed exactly once")).collect();
        (out, stat)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let (results, per_item_s) = pairs.into_iter().unzip();
    (results, BatchTiming { per_item_s, wall_s, allocs_avoided })
}

/// Parallel batched trajectory recovery — any matcher feeding TRMMA
/// (Algorithm 2 line 1), shared by every worker; see module docs. MMA is
/// the paper's wiring, and swapping the matcher yields the `TRMMA-HMM` and
/// `TRMMA-Near` ablations of Table IV without touching the recovery model.
///
/// Each worker runs [`OnlineMatcher::match_trajectory_with`] then
/// [`Trmma::recover_from_match_with`] through its own scratch pair: the
/// matcher's [`OnlineMatcher::Scratch`] and the TRMMA `Graph`, which only
/// ever holds one trajectory's decoder-weight bindings (see
/// [`Mma::match_points_with`], [`Trmma::recover_from_match_with`]). It
/// holds no distance cache: nothing in batch inference reads one. The
/// models' weights are read through their shared `Param` locks a constant
/// number of times per trajectory (once per layer application of a
/// whole-trajectory batch, or when the decoder binds them), never per
/// point, per candidate or per decoded step.
///
/// As a [`TrajectoryRecovery`] it recovers one trajectory on a fresh
/// scratch pair, with the same output as the batch.
///
/// [`Mma::match_points_with`]: crate::Mma::match_points_with
pub struct BatchRecovery<M: OnlineMatcher> {
    matcher: Arc<M>,
    model: Arc<Trmma>,
    opts: BatchOptions,
    name: &'static str,
}

impl<M: OnlineMatcher> BatchRecovery<M> {
    /// Wires `matcher` into the recovery `model` for batch serving,
    /// labelled `"TRMMA"` in tables.
    #[must_use]
    pub fn new(matcher: Arc<M>, model: Arc<Trmma>, opts: BatchOptions) -> Self {
        Self { matcher, model, opts, name: "TRMMA" }
    }

    /// The same pipeline under the table label `name` ("TRMMA-HMM",
    /// "TRMMA-Near", …); a display label only.
    #[must_use]
    pub fn named(self, name: &'static str) -> Self {
        Self { name, ..self }
    }

    fn make_scratch(&self) -> (M::Scratch, Graph) {
        (self.matcher.make_scratch(), Graph::new())
    }

    fn recover_one(
        &self,
        (scratch, graph): &mut (M::Scratch, Graph),
        traj: &Trajectory,
        epsilon_s: f64,
    ) -> MatchedTrajectory {
        assert_recoverable(traj);
        let result = self.matcher.match_trajectory_with(scratch, traj);
        self.model.recover_from_match_with(graph, traj, &result.matched, &result.route, epsilon_s)
    }

    /// Recovers every trajectory of the batch, with per-item and
    /// wall-clock timing; output `i` corresponds to input `i` and is
    /// identical to [`TrajectoryRecovery::recover`] on `batch[i]`.
    ///
    /// # Panics
    /// As [`TrajectoryRecovery::recover`] does, on any trajectory of the
    /// batch.
    #[must_use]
    pub fn recover_batch_timed(
        &self,
        batch: &[Trajectory],
        epsilon_s: f64,
    ) -> (Vec<MatchedTrajectory>, BatchTiming) {
        let threads = self.opts.effective_threads(batch.len());
        timed_map(
            batch,
            threads,
            || self.make_scratch(),
            |scratch, traj| self.recover_one(scratch, traj, epsilon_s),
            |(scratch, _)| M::allocs_avoided(scratch),
        )
    }
}

impl<M: OnlineMatcher> TrajectoryRecovery for BatchRecovery<M> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// # Panics
    /// Panics naming the first point that is not finite or whose `t` does
    /// not rise above its predecessor's ([`assert_recoverable`]), and
    /// unless `epsilon_s` is finite and positive.
    fn recover(&self, traj: &Trajectory, epsilon_s: f64) -> MatchedTrajectory {
        self.recover_one(&mut self.make_scratch(), traj, epsilon_s)
    }
}

/// Fans an [`OnlineMatcher`] out over a batch with one scratch per worker —
/// for the HMM-family baselines that means one warm [`SsspPool`] and one
/// set of kNN heaps per thread, shared nothing, while the matcher's
/// `TransitionProvider` (distance cache / UBODT) is shared read-only.
/// Each worker decodes through the provided
/// [`OnlineMatcher::match_trajectory_with`]. Output order matches input
/// order and every result is identical to the sequential
/// `matcher.match_trajectory(&batch[i])` call (`tests/props_baselines.rs`).
///
/// [`SsspPool`]: trmma_roadnet::shortest::SsspPool
#[must_use]
pub fn par_match_pooled<M: OnlineMatcher>(
    matcher: &M,
    batch: &[Trajectory],
    opts: BatchOptions,
) -> (Vec<MatchResult>, BatchTiming) {
    let threads = opts.effective_threads(batch.len());
    timed_map(
        batch,
        threads,
        || matcher.make_scratch(),
        |scratch, traj| matcher.match_trajectory_with(scratch, traj),
        |scratch| M::allocs_avoided(scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mma::{Mma, MmaConfig};
    use crate::trmma::TrmmaConfig;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use trmma_roadnet::{RoadNetwork, RoutePlanner};
    use trmma_traj::api::MapMatcher;
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};

    fn setup() -> (Arc<RoadNetwork>, Arc<RoutePlanner>, trmma_traj::Dataset) {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        (net, planner, ds)
    }

    fn trained_models(
        net: &Arc<RoadNetwork>,
        planner: &Arc<RoutePlanner>,
        ds: &trmma_traj::Dataset,
    ) -> (Arc<Mma>, Arc<Trmma>) {
        let train: Vec<_> = ds.samples(Split::Train, 0.2, 2).into_iter().take(6).collect();
        let mut mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        mma.train(&train, 2);
        let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
        model.train(&train, 2);
        (Arc::new(mma), Arc::new(model))
    }

    #[test]
    fn batch_matcher_identical_to_sequential_for_any_thread_count() {
        let (net, planner, ds) = setup();
        let (mma, _) = trained_models(&net, &planner, &ds);
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 3).into_iter().take(8).map(|s| s.sparse).collect();
        let sequential: Vec<_> = batch.iter().map(|t| mma.match_trajectory(t)).collect();
        for threads in [1, 2, 4] {
            let (got, _) = par_match_pooled(&*mma, &batch, BatchOptions::with_threads(threads));
            assert_eq!(got, sequential, "thread count {threads} changed output");
        }
    }

    #[test]
    fn batch_recovery_identical_to_sequential_and_order_independent() {
        let (net, planner, ds) = setup();
        let (mma, model) = trained_models(&net, &planner, &ds);
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 4).into_iter().take(8).map(|s| s.sparse).collect();
        let eps = ds.epsilon_s;

        // Sequential reference through the plain (allocating) API.
        let reference: Vec<MatchedTrajectory> = batch
            .iter()
            .map(|t| {
                let r = mma.match_trajectory(t);
                model.recover_from_match(t, &r.matched, &r.route, eps)
            })
            .collect();

        let engine = BatchRecovery::new(mma, model, BatchOptions::with_threads(4));
        let got = engine.recover_batch_timed(&batch, eps).0;
        assert_eq!(got, reference, "parallel batch diverged from sequential");

        // Shuffled input: results must follow their trajectories, keyed by
        // the input permutation.
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(11));
        let shuffled: Vec<Trajectory> = order.iter().map(|&i| batch[i].clone()).collect();
        let got_shuffled = engine.recover_batch_timed(&shuffled, eps).0;
        for (slot, &src) in order.iter().enumerate() {
            assert_eq!(got_shuffled[slot], reference[src], "shuffle broke keying");
        }
    }

    #[test]
    fn timing_reports_are_consistent() {
        let (net, planner, ds) = setup();
        let (mma, model) = trained_models(&net, &planner, &ds);
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 5).into_iter().take(6).map(|s| s.sparse).collect();
        let engine = BatchRecovery::new(mma, model, BatchOptions::with_threads(2));
        let (results, timing) = engine.recover_batch_timed(&batch, ds.epsilon_s);
        assert_eq!(results.len(), batch.len());
        assert_eq!(timing.per_item_s.len(), batch.len());
        assert!(timing.wall_s > 0.0);
        assert!(timing.per_item_s.iter().all(|&s| s > 0.0 && s <= timing.wall_s));
    }

    #[test]
    fn par_match_pooled_baselines_identical_to_sequential() {
        use trmma_baselines::{FmmMatcher, HmmConfig, HmmMatcher};
        let (net, planner, ds) = setup();
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 8).into_iter().take(6).map(|s| s.sparse).collect();
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
        let fmm = FmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
        let hmm_ref: Vec<_> = batch.iter().map(|t| hmm.match_trajectory(t)).collect();
        let fmm_ref: Vec<_> = batch.iter().map(|t| fmm.match_trajectory(t)).collect();
        for threads in [1, 2, 4] {
            let opts = BatchOptions::with_threads(threads);
            let (got, timing) = par_match_pooled(&hmm, &batch, opts);
            assert_eq!(got, hmm_ref, "HMM diverged at {threads} threads");
            assert_eq!(timing.per_item_s.len(), batch.len());
            assert!(timing.allocs_avoided > 0, "allocs_avoided must reach BatchTiming");
            let (got, _) = par_match_pooled(&fmm, &batch, opts);
            assert_eq!(got, fmm_ref, "FMM diverged at {threads} threads");
        }
        // MMA implements the same surface.
        let (mma, _) = trained_models(&net, &planner, &ds);
        let seq: Vec<_> = batch.iter().map(|t| mma.match_trajectory(t)).collect();
        let (got, _) = par_match_pooled(mma.as_ref(), &batch, BatchOptions::with_threads(3));
        assert_eq!(got, seq);
    }

    /// MMA's scratch lends a session one candidate row a point and takes
    /// them back at finalize: a second trajectory of the same length needs
    /// no new row, and the counter says so.
    #[test]
    fn mma_scratch_lends_every_row_of_a_repeated_length() {
        let (net, planner, ds) = setup();
        let mma = Mma::new(net, planner, None, MmaConfig::small());
        let traj = ds.samples(Split::Test, 0.2, 9).swap_remove(0).sparse;
        let mut scratch = mma.make_scratch();
        let first = mma.match_trajectory_with(&mut scratch, &traj);
        let before = Mma::allocs_avoided(&scratch);
        assert_eq!(mma.match_trajectory_with(&mut scratch, &traj), first);
        let lent = Mma::allocs_avoided(&scratch) - before;
        assert!(lent >= traj.len() as u64, "{lent} rows reused for {} points", traj.len());
        // The batch engine reads the same counter off its workers.
        let pair = [traj.clone(), traj.clone()];
        let (_, timing) = par_match_pooled(&mma, &pair, BatchOptions::with_threads(1));
        assert!(timing.allocs_avoided >= traj.len() as u64);
    }

    #[test]
    fn empty_and_single_item_batches() {
        let (net, planner, ds) = setup();
        let (mma, model) = trained_models(&net, &planner, &ds);
        let engine = BatchRecovery::new(mma, model, BatchOptions::default());
        assert!(engine.recover_batch_timed(&[], ds.epsilon_s).0.is_empty());
        let one: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 7).into_iter().take(1).map(|s| s.sparse).collect();
        assert_eq!(engine.recover_batch_timed(&one, ds.epsilon_s).0.len(), 1);
    }

    #[test]
    fn full_pipeline_produces_aligned_output() {
        let (net, planner, ds) = setup();
        let train = ds.samples(Split::Train, 0.2, 1);
        let mut mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
        mma.train(&train, 3);
        let mut model = Trmma::new(net.clone(), TrmmaConfig::small());
        model.train(&train, 3);
        let pipeline = BatchRecovery::new(Arc::new(mma), Arc::new(model), BatchOptions::default());

        let s = &ds.samples(Split::Test, 0.2, 2)[0];
        let rec = pipeline.recover(&s.sparse, ds.epsilon_s);
        assert_eq!(rec.len(), s.dense_truth.len());
        let m = trmma_traj::metrics::recovery_metrics(&net, &rec, &s.dense_truth, None);
        assert!(m.accuracy > 0.0);
        assert_eq!(pipeline.name(), "TRMMA");
    }

    #[test]
    fn matcher_swap_ablation_compiles_and_runs() {
        let (net, planner, ds) = setup();
        let nearest = Arc::new(trmma_baselines::NearestMatcher::new(net.clone(), planner));
        let model = Arc::new(Trmma::new(net, TrmmaConfig::small()));
        let pipeline =
            BatchRecovery::new(nearest, model, BatchOptions::default()).named("TRMMA-Near");
        let s = &ds.samples(Split::Test, 0.2, 3)[0];
        let rec = pipeline.recover(&s.sparse, ds.epsilon_s);
        assert!(!rec.is_empty());
        assert_eq!(pipeline.name(), "TRMMA-Near");
    }

    #[test]
    fn unusable_epsilon_and_non_finite_points_are_rejected() {
        let (net, planner, ds) = setup();
        let mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
        let model = Trmma::new(net, TrmmaConfig::small());
        let pipeline = BatchRecovery::new(Arc::new(mma), Arc::new(model), BatchOptions::default());
        let s = &ds.samples(Split::Test, 0.2, 3)[0];
        crate::test_support::assert_rejects_unusable_epsilon(&pipeline, &s.sparse);
        crate::test_support::assert_rejects_non_finite_points(&pipeline, &s.sparse, ds.epsilon_s);
    }

    /// Every matcher wired into TRMMA refuses timestamps that do not rise,
    /// through `recover` and through the batch path alike.
    #[test]
    fn non_increasing_timestamps_are_rejected_after_every_matcher() {
        use trmma_baselines::{FmmMatcher, HmmConfig, HmmMatcher, NearestMatcher};
        let (net, planner, ds) = setup();
        let model = Arc::new(Trmma::new(net.clone(), TrmmaConfig::small()));
        let s = &ds.samples(Split::Test, 0.2, 3)[0];
        let check = |method: &dyn TrajectoryRecovery| {
            crate::test_support::assert_rejects_non_increasing_times(
                method,
                &s.sparse,
                ds.epsilon_s,
            );
        };
        let opts = BatchOptions::with_threads(1);
        let mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
        let fmm = FmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
        let near = Arc::new(NearestMatcher::new(net, planner));
        check(&BatchRecovery::new(Arc::new(mma), model.clone(), opts));
        check(&BatchRecovery::new(Arc::new(hmm), model.clone(), opts));
        check(&BatchRecovery::new(Arc::new(fmm), model.clone(), opts));
        check(&BatchRecovery::new(near.clone(), model.clone(), opts));
        let mut repeated = s.sparse.clone();
        repeated.points[2].t = repeated.points[1].t;
        let batch = [s.sparse.clone(), repeated];
        for threads in [1, 2] {
            let engine = BatchRecovery::new(
                near.clone(),
                model.clone(),
                BatchOptions::with_threads(threads),
            );
            let run = || engine.recover_batch_timed(&batch, ds.epsilon_s);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("the batch path must refuse what recover refuses");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("GPS point 2 must have t above point 1's"), "{threads}: {msg}");
        }
    }

    #[test]
    fn effective_threads_clamps() {
        let o = BatchOptions::with_threads(8);
        assert_eq!(o.effective_threads(3), 3);
        assert_eq!(o.effective_threads(100), 8);
        assert_eq!(o.effective_threads(0), 1);
        assert!(BatchOptions::default().effective_threads(64) >= 1);
    }
}
