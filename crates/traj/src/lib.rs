//! Trajectory data model, synthetic data pipeline and evaluation metrics.
//!
//! Implements Definitions 2–7 of the paper and the full data side of its
//! experimental setup (§VI-A):
//!
//! * [`types`] — GPS points, trajectories, routes, map-matched points and
//!   ε-sampling trajectories;
//! * [`gen`] — the synthetic trajectory generator standing in for the PT /
//!   XA / BJ / CD taxi corpora: OD-pair routes on a road network, constant
//!   per-segment speeds with per-trip jitter, exact map-matched ground truth
//!   at the target sampling rate ε, Gaussian GPS noise, and random
//!   sparsification to average interval ε/γ (the paper's protocol);
//! * [`dataset`] — the four named dataset configurations mirroring Table II
//!   at laptop scale, with deterministic train/validation/test splits
//!   (40/30/30 as in the paper);
//! * [`metrics`] — MAE/RMSE over road-network distance (Eq. 22), Precision /
//!   Recall / F1 / Accuracy for recovery, and Precision / Recall / F1 /
//!   Jaccard for map matching;
//! * [`online`] — the streaming interface: [`OnlineMatcher`] sessions fed
//!   one GPS point at a time, with provisional matches and a
//!   stabilized-prefix watermark.
//!
//! # Example
//!
//! Build the tiny synthetic dataset and draw sparse samples with exact
//! map-matched ground truth — the input every experiment starts from:
//!
//! ```
//! use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
//!
//! let ds = build_dataset(&DatasetConfig::tiny());
//! let samples = ds.samples(Split::Test, 0.2, 42);
//! assert!(!samples.is_empty());
//! let s = &samples[0];
//! // One ground-truth matched point per sparse GPS point…
//! assert_eq!(s.sparse.len(), s.sparse_truth.len());
//! // …and the true route is a connected path in the network.
//! assert!(s.route.is_valid(&ds.net));
//! ```

pub mod api;
pub mod dataset;
pub mod gen;
pub mod io;
pub mod metrics;
pub mod online;
pub mod snapshot;
pub mod types;

pub use api::{
    epsilon_ticks, stitch_route, Candidate, CandidateFinder, CandidateScratch, MapMatcher,
    MatchResult, ScratchMatcher, ScratchStats, TrajectoryRecovery,
};
pub use dataset::{build_dataset, Dataset, DatasetConfig, Split};
pub use gen::{sparsify, RawTrajectory, Sample, TrajConfig};
pub use metrics::{matching_metrics, recovery_metrics, MatchingMetrics, RecoveryMetrics};
pub use online::{OnlineMatcher, OnlineUpdate};
pub use snapshot::SnapshotError;
pub use types::{GpsPoint, MatchedPoint, MatchedTrajectory, Route, Trajectory};
