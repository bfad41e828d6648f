//! The paper's contribution: **MMA** map matching (§IV) and **TRMMA**
//! sparse trajectory recovery (§V).
//!
//! * [`mma::Mma`] — maps each GPS point of a sparse trajectory to a road
//!   segment by *classifying over a small candidate set* (top-`kc` nearest
//!   segments, Definition 8) instead of the whole network. Candidate
//!   embeddings combine Node2Vec-initialised id vectors with four
//!   directional cosine features (Eq. 1–2); point embeddings run the GPS
//!   sequence through a transformer and attend over the candidates
//!   (Eq. 3–8); matching is a per-candidate sigmoid score (Eq. 9) trained
//!   with binary cross-entropy (Eq. 10). Matched segments are stitched into
//!   a route by the shared statistical route planner (Algorithm 1).
//! * [`trmma::Trmma`] — recovers the missing points of a sparse trajectory
//!   *restricted to the segments of its route*: a DualFormer encodes the
//!   trajectory and route sequences and fuses them with cross-attention
//!   (Eq. 11–14); a GRU decoder sequentially classifies each missing
//!   point's segment among the route's segments — respecting route order
//!   (Eq. 17) — and regresses its position ratio (Eq. 18), trained with the
//!   multitask loss of Eq. 19–21 (Algorithm 2).
//! * [`batch`] — the end-to-end system and its batched, parallel inference
//!   engine: [`BatchRecovery`] is the one recovery pipeline, any matcher
//!   feeding TRMMA (MMA by default; the matcher swaps of Table IV are other
//!   wirings), and it and [`par_match_pooled`] fan a `&[Trajectory]` out
//!   across worker threads that share one immutable model and reuse
//!   per-worker scratch state, with output bitwise-identical to the
//!   sequential API.
//! * [`stream`] — the streaming session engine: [`StreamEngine`]
//!   multiplexes live `trmma_traj::OnlineMatcher` sessions (points arriving
//!   one at a time, interleaved across devices) over the same per-worker
//!   scratch model, behind a load-aware router (each new session is
//!   placed on the least-loaded worker and stays there, telemetered via
//!   [`RouterStats`]), with crash recovery from a per-session journal,
//!   provisional per-point matches, stabilized-prefix watermarks, and
//!   idle-session finalize-on-timeout.
//!
//! # Example
//!
//! Stream one live trip through the session engine and confirm the
//! finalized route equals the offline decode of the same points:
//!
//! ```
//! use std::sync::Arc;
//! use trmma_core::{StreamEngine, StreamEvent, StreamOptions};
//! use trmma_core::{Mma, MmaConfig};
//! use trmma_roadnet::RoutePlanner;
//! use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
//! use trmma_traj::MapMatcher;
//!
//! let ds = build_dataset(&DatasetConfig::tiny());
//! let net = Arc::new(ds.net.clone());
//! let planner = Arc::new(RoutePlanner::untrained(&net));
//! let mma = Arc::new(Mma::new(net, planner, None, MmaConfig::small()));
//!
//! let trip = ds.samples(Split::Test, 0.2, 3)[0].sparse.clone();
//! let engine = StreamEngine::new(mma.clone(), StreamOptions::with_threads(2));
//! for &p in &trip.points {
//!     engine.push(42, p);
//! }
//! engine.finish(42);
//! let (events, stats) = engine.shutdown();
//! assert_eq!(stats.points, trip.len() as u64);
//! let finalized = events.iter().find_map(|e| match e {
//!     StreamEvent::Finalized { result, .. } => Some(result.clone()),
//!     StreamEvent::Update { .. } => None,
//! });
//! assert_eq!(finalized.as_ref(), Some(&mma.match_trajectory(&trip)));
//! ```

pub mod artifact;
pub mod batch;
pub mod mma;
pub mod serve;
pub mod snapshot;
pub mod stream;
pub mod trmma;
mod weights;

#[cfg(test)]
#[path = "../../baselines/src/test_support.rs"]
mod test_support;

pub use artifact::{Artifact, ArtifactBuilder, ArtifactError, SectionKind, ShardsMeta};
pub use batch::{par_match_pooled, BatchOptions, BatchRecovery, BatchTiming};
pub use mma::{Mma, MmaConfig, MmaScratch, MmaSession};
pub use serve::{
    BusyCode, ClientError, Frame, FrameKind, RefuseCode, Reply, ServeClient, ServeConfig,
    ServeStats, Server, TenantLoad,
};
pub use snapshot::SessionSnapshot;
pub use stream::{
    FaultPlan, FinalizeReason, RecvEventError, RouterStats, SessionId, StreamEngine, StreamEvent,
    StreamOptions, StreamStats, WorkerTelemetry,
};
pub use trmma::{Trmma, TrmmaConfig};
