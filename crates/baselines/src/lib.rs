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
//! in a per-worker [`HmmScratch`]. Every matcher implements the one matcher
//! trait, [`trmma_traj::OnlineMatcher`] (FMM and LHMM by delegating to the
//! [`HmmMatcher`] they wrap), so `trmma_core::batch::par_match_pooled` fans
//! baseline batches across threads with one warm Dijkstra pool per worker
//! and output identical to the sequential API.
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
//! point-at-a-time online session. The offline decode is that session
//! replayed, so the two are bitwise-identical by construction:
//!
//! ```
//! use std::sync::Arc;
//! use trmma_baselines::{HmmConfig, HmmMatcher};
//! use trmma_roadnet::RoutePlanner;
//! use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
//! use trmma_traj::{MapMatcher, OnlineMatcher};
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
//! // The session `match_trajectory` runs, with each point's update read:
//! // open, push every point, finalize.
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

#[cfg(test)]
pub(crate) mod test_support;
