//! The road-network substrate (Definition 1 of the paper).
//!
//! A road network is a directed graph `G = (V, E)`: nodes are intersections
//! or road ends, directed edges are road segments with planar geometry. On
//! top of the graph this crate provides everything the paper's pipeline
//! needs from its "road network" dependency:
//!
//! * [`graph::RoadNetwork`] — compact arena-based graph with successor /
//!   predecessor adjacency and an R-tree over segment geometry;
//! * [`shortest`] — Dijkstra shortest paths (early-exit, bounded,
//!   multi-target), network distance between map-matched points (the
//!   distance `d(a_i, â_i)` of the MAE/RMSE metric, Eq. 22), and the bounded
//!   single-source sweep used by FMM's UBODT;
//! * [`planner::RoutePlanner`] — the "DA-based route planning method relying
//!   on basic statistical counts" (ref.\[2\], used at Algorithm 1 line 12): a
//!   maximum-likelihood path search over historical segment-transition
//!   counts with a travel-time fallback;
//! * [`transition`] — the pooled transition-cost oracle shared by the
//!   HMM-family matchers: [`TransitionProvider`] answers a lattice step's
//!   whole route-distance matrix (or one pair) from a precomputed
//!   [`DistTable`] (FMM's UBODT), a [`ShardedNetwork`], or Dijkstra sweeps,
//!   with all mutable Dijkstra state in per-worker [`shortest::SsspPool`]s;
//! * [`shard`] — grid-tiled partitions of a network ([`ShardedNetwork`])
//!   with per-shard R-trees and distance tables, stitching
//!   cross-shard transitions through a boundary-node overlay so decoders
//!   scale past one-process-owns-the-whole-graph;
//! * [`gen`] — a synthetic city generator standing in for the paper's
//!   OpenStreetMap extracts (see DESIGN.md §1 for the substitution
//!   rationale).
//!
//! # Example
//!
//! Generate a synthetic city and query a bounded shortest-path distance —
//! the oracle behind every HMM transition probability:
//!
//! ```
//! use trmma_roadnet::shortest::{node_dist, Weight};
//! use trmma_roadnet::{generate_city, NetworkConfig, SegmentId};
//!
//! let net = generate_city(&NetworkConfig::with_size(4, 4, 7));
//! assert!(net.num_segments() > 0);
//! let seg = net.segment(SegmentId(0));
//! // A segment's endpoints are connected by at most its own length.
//! let d = node_dist(&net, seg.from, seg.to, Weight::Length, 10_000.0)
//!     .expect("endpoints of a segment are connected");
//! assert!(d <= seg.length + 1e-9);
//! ```

pub mod gen;
pub mod graph;
pub mod planner;
pub mod shard;
pub mod shortest;
pub mod transition;

pub use gen::{generate_city, NetworkConfig};
pub use graph::{NodeId, RoadClass, RoadNetwork, Segment, SegmentId};
pub use planner::RoutePlanner;
pub use shard::{CutStrategy, GridCut, HashCut, Shard, ShardPlan, ShardedNetwork};
pub use transition::{DistImageError, DistTable, RouteMatrix, TransitionError, TransitionProvider};
