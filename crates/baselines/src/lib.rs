//! Comparator methods for map matching and trajectory recovery.
//!
//! The paper evaluates TRMMA/MMA against a battery of existing methods.
//! This crate implements the classic ones faithfully and the learned ones as
//! mechanism-preserving surrogates (see DESIGN.md §1):
//!
//! **Map matching**
//! * [`NearestMatcher`] — every GPS point to its nearest segment (the
//!   `Nearest` row of Table V);
//! * [`HmmMatcher`] — Newson & Krumm (SIGSPATIAL 2009): Gaussian emission on
//!   perpendicular distance, exponential transition on
//!   `|route − great-circle|` detour, Viterbi decoding;
//! * [`FmmMatcher`] — FMM (Yang & Gidófalvi 2018): the same HMM accelerated
//!   by a precomputed upper-bounded origin–destination table (UBODT, a
//!   `trmma_roadnet::DistTable`);
//! * [`LhmmMatcher`] — learned-HMM surrogate (LHMM, Shi et al. 2023):
//!   emission/transition parameters fitted by maximum likelihood on the
//!   training corpus.
//!
//! The HMM family shares one route-distance oracle
//! (`trmma_roadnet::TransitionProvider`) and keeps all mutable search state
//! in a per-worker [`HmmScratch`]; every matcher implements
//! `trmma_traj::ScratchMatcher`, so `trmma_core::batch::par_match_pooled`
//! fans baseline batches across threads with one warm Dijkstra pool per
//! worker and output identical to the sequential API.
//!
//! **Trajectory recovery**
//! * [`LinearRecovery`] — map-match with any [`trmma_traj::MapMatcher`], then linearly
//!   interpolate missing points along the route (the `Linear`,
//!   `MMA+linear`, `Nearest+linear` rows of Tables III/IV);
//! * [`Seq2SeqFull`] — an MTrajRec-style GRU encoder/decoder that classifies
//!   each recovered point over **all** `|E|` segments of the network — the
//!   "evaluate the entire road network" design whose cost TRMMA's
//!   route-restricted decoding avoids.
//!
//! # Example
//!
//! Match a sparse trajectory with the classic HMM — offline and as a
//! point-at-a-time online session, which are bitwise-identical by
//! contract:
//!
//! ```
//! use std::sync::Arc;
//! use trmma_baselines::{HmmConfig, HmmMatcher};
//! use trmma_roadnet::RoutePlanner;
//! use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
//! use trmma_traj::{MapMatcher, OnlineMatcher, ScratchMatcher};
//!
//! let ds = build_dataset(&DatasetConfig::tiny());
//! let net = Arc::new(ds.net.clone());
//! let planner = Arc::new(RoutePlanner::untrained(&net));
//! let hmm = HmmMatcher::new(net, planner, HmmConfig::default());
//!
//! let traj = &ds.samples(Split::Test, 0.2, 1)[0].sparse;
//! let offline = hmm.match_trajectory(traj);
//! assert_eq!(offline.matched.len(), traj.len());
//!
//! // Offline is online replayed: push every point, then finalize.
//! let mut scratch = hmm.make_scratch();
//! let mut session = hmm.begin_session();
//! for &p in &traj.points {
//!     hmm.push_point(&mut scratch, &mut session, p);
//! }
//! assert_eq!(hmm.finalize(&mut scratch, session), offline);
//! ```

pub mod decoder;
pub mod hmm;
pub mod lhmm;
pub mod linear;
pub mod nearest;
pub mod seq2seq;

pub use decoder::ViterbiState;
pub use hmm::{FmmMatcher, HmmConfig, HmmMatcher, HmmScratch, HmmSession};
pub use lhmm::{fit_params, FittedParams, LhmmMatcher};
pub use linear::LinearRecovery;
pub use nearest::{NearestMatcher, NearestSession};
pub use seq2seq::{Seq2SeqConfig, Seq2SeqFull};

/// Summary of one training run (epoch wall-times feed Figs. 6 and 10).
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_times_s: Vec<f64>,
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

#[cfg(test)]
pub(crate) mod test_support {
    use trmma_traj::api::TrajectoryRecovery;
    use trmma_traj::types::Trajectory;

    /// Every ε that [`trmma_traj::epsilon_ticks`] must refuse, handed to
    /// `method.recover`: each has to panic naming `epsilon_s` and the value
    /// instead of sizing an output from it.
    pub fn assert_rejects_unusable_epsilon(method: &dyn TrajectoryRecovery, traj: &Trajectory) {
        for (eps, shown) in
            [(0.0, "got 0"), (-15.0, "got -15"), (f64::NAN, "got NaN"), (f64::INFINITY, "got inf")]
        {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                method.recover(traj, eps)
            }))
            .expect_err("an unusable ε must not be recovered with");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("epsilon_s") && msg.contains(shown), "ε = {eps}: {msg}");
        }
    }
}
