//! Shared interfaces of the pipeline: map matchers, recovery methods and
//! the candidate-segment finder (Definition 8).
//!
//! Every matcher in the repository — `Nearest`, `HMM`, `FMM` (baselines
//! crate) and `MMA` (core crate) — implements [`MapMatcher`]; every recovery
//! method — `Linear`, `Seq2SeqFull`, `TRMMA` — implements
//! [`TrajectoryRecovery`]. The benchmark harness drives everything through
//! these traits, which is what makes the paper's method-by-method tables
//! mechanical to regenerate.

use std::sync::Arc;

use trmma_geom::Vec2;
use trmma_roadnet::{RoadNetwork, RoutePlanner, SegmentId, ShardedNetwork};
use trmma_rtree::{IndexedSegment, KnnScratch, Neighbor, RTree};

use crate::types::{MatchedPoint, MatchedTrajectory, Route, Trajectory};

/// Output of map matching one trajectory: the per-point matches and the
/// stitched route (Definition 4).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// One matched point per input GPS point.
    pub matched: Vec<MatchedPoint>,
    /// The stitched route of the trajectory.
    pub route: Route,
}

/// Stitches per-point matches into a [`MatchResult`]: the matched segment
/// sequence is connected into a route by the shared planner, falling back
/// to the raw sequence when no connection exists. The common tail of every
/// matcher's offline and online decode.
#[must_use]
pub fn stitch_route(
    net: &RoadNetwork,
    planner: &RoutePlanner,
    matched: Vec<MatchedPoint>,
) -> MatchResult {
    let seq: Vec<SegmentId> = matched.iter().map(|m| m.seg).collect();
    let route = planner.connect(net, &seq).map(Route::new).unwrap_or_else(|| Route::new(seq));
    MatchResult { matched, route }
}

/// A map-matching method.
///
/// `Send + Sync` is part of the contract: matchers are immutable at
/// inference time and are shared by reference across the worker threads of
/// the batched inference engine (`trmma_core::batch`).
pub trait MapMatcher: Send + Sync {
    /// Short display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Maps the GPS points of `traj` onto road segments and deduces the
    /// underlying route.
    fn match_trajectory(&self, traj: &Trajectory) -> MatchResult;
}

/// Map matching through caller-owned, per-worker scratch state.
///
/// The batched inference engine (`trmma_core::batch::par_match_pooled`)
/// creates one `Scratch` per worker thread and reuses it for every
/// trajectory that worker claims — pooled Dijkstra buffers, kNN heaps,
/// autograd tapes. The contract: [`ScratchMatcher::match_trajectory_with`]
/// must return output identical to [`MapMatcher::match_trajectory`]
/// regardless of what the scratch previously served; `tests/
/// props_baselines.rs` property-tests this for every baseline matcher.
pub trait ScratchMatcher: MapMatcher {
    /// Per-worker mutable state.
    type Scratch: Send;

    /// Creates one worker's scratch.
    fn make_scratch(&self) -> Self::Scratch;

    /// Like [`MapMatcher::match_trajectory`], reusing `scratch`'s buffers.
    fn match_trajectory_with(&self, scratch: &mut Self::Scratch, traj: &Trajectory) -> MatchResult;

    /// Work-attribution counters accumulated in `scratch` — what the
    /// engines fold into their timing / router reports. The default is
    /// all-zero for matchers whose scratch tracks nothing.
    fn scratch_stats(_scratch: &Self::Scratch) -> ScratchStats {
        ScratchStats::default()
    }
}

/// Allocation-attribution counters of a per-worker scratch (see
/// [`ScratchMatcher::scratch_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Heap allocations the scratch's arenas absorbed: buffers served from
    /// recycled storage on the per-point hot path instead of the allocator.
    pub allocs_avoided: u64,
}

/// A trajectory-recovery method (Definition 7).
///
/// `Send + Sync` for the same reason as [`MapMatcher`]: recovery models are
/// shared read-only across batch workers.
pub trait TrajectoryRecovery: Send + Sync {
    /// Short display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Recovers the map-matched ε-sampling trajectory of sparse `traj`.
    ///
    /// # Panics
    /// Implementations count ε-ticks through [`epsilon_ticks`], which
    /// panics unless `epsilon_s` is finite and positive.
    fn recover(&self, traj: &Trajectory, epsilon_s: f64) -> MatchedTrajectory;
}

/// Number of ε-ticks in `interval_s`: `(interval_s / epsilon_s).round()`,
/// the count every recovery method sizes its output from.
///
/// `epsilon_s` comes straight from the caller of
/// [`TrajectoryRecovery::recover`]; a zero, negative or non-finite value
/// would turn the quotient into `usize::MAX` points to emit, so it is
/// rejected here, once, for all of them. A non-positive or NaN
/// `interval_s` counts zero ticks (the saturating float → integer cast).
///
/// # Panics
/// Panics naming the value unless `epsilon_s` is finite and `> 0.0`.
#[must_use]
pub fn epsilon_ticks(interval_s: f64, epsilon_s: f64) -> usize {
    assert!(
        epsilon_s.is_finite() && epsilon_s > 0.0,
        "epsilon_s must be finite and > 0.0, got {epsilon_s}"
    );
    (interval_s / epsilon_s).round() as usize
}

/// One candidate segment of a GPS point, with its perpendicular distance and
/// the projected position ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate segment.
    pub seg: SegmentId,
    /// Perpendicular (clamped) distance from the GPS point, metres.
    pub dist_m: f64,
    /// Projection ratio of the GPS point onto the segment.
    pub ratio: f64,
}

/// Reusable buffers for [`CandidateFinder::candidates_into`]: the R-tree
/// search scratch plus the raw neighbour list.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    knn: KnnScratch,
    neighbors: Vec<Neighbor>,
}

impl CandidateScratch {
    /// Empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where a [`CandidateFinder`] searches: one R-tree over the whole
/// network, or the per-shard trees of a [`ShardedNetwork`].
#[derive(Debug)]
enum FinderBackend {
    /// A single tree over every segment of the network.
    Whole(RTree<IndexedSegment>),
    /// One tree per shard; per-shard ties-inclusive top-`kc` results are
    /// merged and canonically re-ranked, which yields exactly the whole-
    /// network candidate set (any segment outside its shard's with-ties
    /// top-`kc` has `kc` strictly closer segments in that shard alone, so
    /// it cannot be in the global top-`kc` either).
    Sharded(Arc<ShardedNetwork>),
}

/// Top-`kc` nearest-segment query over STR R-trees (Definition 8).
///
/// Candidates are ranked **canonically** by `(distance, segment id)`:
/// nearest-first, exact distance ties broken by the smaller global segment
/// id. Ties are real on grid-like networks — every two-way road is a
/// segment pair with identical geometry — and the R-tree's own emission
/// order for tied items depends on tree structure, so the finder fetches
/// the full tie group ([`RTree::knn_with_ties_into`]) and re-ranks. This
/// makes the candidate set a pure function of the network contents,
/// independent of tree build order — and therefore identical between a
/// whole-network tree and merged per-shard trees.
#[derive(Debug)]
pub struct CandidateFinder {
    backend: FinderBackend,
    kc: usize,
}

impl CandidateFinder {
    /// Builds the finder over `net` with candidate-set size `kc` (the paper
    /// fixes `kc = 10` after the Fig. 2 analysis).
    #[must_use]
    pub fn new(net: &RoadNetwork, kc: usize) -> Self {
        Self { backend: FinderBackend::Whole(net.build_rtree()), kc }
    }

    /// Builds the finder over the per-shard trees of `sharded` — no new
    /// trees are built, and results are identical to [`CandidateFinder::new`]
    /// on the underlying whole network.
    #[must_use]
    pub fn sharded(sharded: Arc<ShardedNetwork>, kc: usize) -> Self {
        Self { backend: FinderBackend::Sharded(sharded), kc }
    }

    /// Candidate-set size.
    #[must_use]
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// The top-`kc` nearest segments to `p`, closest first.
    #[must_use]
    pub fn candidates(&self, p: Vec2) -> Vec<Candidate> {
        let mut scratch = CandidateScratch::new();
        let mut out = Vec::with_capacity(self.kc);
        self.candidates_into(p, &mut scratch, &mut out);
        out
    }

    /// Appends `tree`'s ties-inclusive top-`k` around `p` to `out`.
    fn gather(
        tree: &RTree<IndexedSegment>,
        p: Vec2,
        k: usize,
        scratch: &mut CandidateScratch,
        out: &mut Vec<Candidate>,
    ) {
        tree.knn_with_ties_into(p, k, &mut scratch.knn, &mut scratch.neighbors);
        out.extend(scratch.neighbors.iter().map(|n| {
            let seg = tree.item(n.item);
            Candidate { seg: SegmentId(seg.id), dist_m: n.dist, ratio: seg.line.project_ratio(p) }
        }));
    }

    /// Canonical rank: nearest first, ties by global segment id.
    fn rank(out: &mut Vec<Candidate>, k: usize) {
        out.sort_unstable_by(|a, b| a.dist_m.total_cmp(&b.dist_m).then(a.seg.cmp(&b.seg)));
        out.truncate(k);
    }

    /// The top-`kc` nearest segments to `p` in canonical order, written
    /// into `out` (cleared first) through caller-owned scratch buffers.
    ///
    /// The allocation-free path of the batched inference engine: one
    /// [`CandidateScratch`] per worker serves every GPS point of every
    /// trajectory assigned to that worker.
    pub fn candidates_into(
        &self,
        p: Vec2,
        scratch: &mut CandidateScratch,
        out: &mut Vec<Candidate>,
    ) {
        out.clear();
        match &self.backend {
            FinderBackend::Whole(tree) => Self::gather(tree, p, self.kc, scratch, out),
            FinderBackend::Sharded(sh) => {
                for shard in sh.shards() {
                    Self::gather(shard.tree(), p, self.kc, scratch, out);
                }
            }
        }
        Self::rank(out, self.kc);
    }

    /// The single nearest segment to `p` (canonical: exact-distance ties go
    /// to the smaller segment id), or `None` on an empty network.
    #[must_use]
    pub fn nearest(&self, p: Vec2) -> Option<Candidate> {
        let mut scratch = CandidateScratch::new();
        let mut out = Vec::with_capacity(2);
        match &self.backend {
            FinderBackend::Whole(tree) => Self::gather(tree, p, 1, &mut scratch, &mut out),
            FinderBackend::Sharded(sh) => {
                for shard in sh.shards() {
                    Self::gather(shard.tree(), p, 1, &mut scratch, &mut out);
                }
            }
        }
        Self::rank(&mut out, 1);
        out.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_roadnet::{generate_city, NetworkConfig};

    #[test]
    fn epsilon_ticks_rounds_and_saturates_at_zero() {
        assert_eq!(epsilon_ticks(45.0, 15.0), 3);
        assert_eq!(epsilon_ticks(52.4, 15.0), 3);
        assert_eq!(epsilon_ticks(52.6, 15.0), 4);
        assert_eq!(epsilon_ticks(7.4, 15.0), 0);
        assert_eq!(epsilon_ticks(0.0, 15.0), 0);
        assert_eq!(epsilon_ticks(-30.0, 15.0), 0);
        assert_eq!(epsilon_ticks(f64::NAN, 15.0), 0);
    }

    #[test]
    #[should_panic(expected = "epsilon_s must be finite and > 0.0, got 0")]
    fn epsilon_ticks_rejects_zero() {
        let _ = epsilon_ticks(60.0, 0.0);
    }

    #[test]
    fn candidates_sorted_and_sized() {
        let net = generate_city(&NetworkConfig::with_size(8, 8, 17));
        let finder = CandidateFinder::new(&net, 10);
        let p = net.segment(SegmentId(3)).line.point_at(0.4);
        let cands = finder.candidates(p);
        assert_eq!(cands.len(), 10);
        for w in cands.windows(2) {
            assert!(w[0].dist_m <= w[1].dist_m + 1e-9);
        }
        // The query point lies on segment 3, so it must be the closest (or
        // tied at zero distance).
        assert!(cands[0].dist_m < 1e-6);
        assert!(cands.iter().any(|c| c.seg == SegmentId(3)));
    }

    #[test]
    fn nearest_agrees_with_first_candidate() {
        let net = generate_city(&NetworkConfig::with_size(8, 8, 17));
        let finder = CandidateFinder::new(&net, 5);
        let p = Vec2::new(321.0, 456.0);
        let nearest = finder.nearest(p).unwrap();
        let cands = finder.candidates(p);
        assert!((nearest.dist_m - cands[0].dist_m).abs() < 1e-12);
    }

    #[test]
    fn sharded_finder_matches_whole_network_finder() {
        use trmma_roadnet::{GridCut, HashCut, ShardPlan};
        let net = Arc::new(generate_city(&NetworkConfig::with_size(7, 7, 23)));
        let whole = CandidateFinder::new(&net, 10);
        for cut in [
            ShardPlan::new(&net, &GridCut { tiles_x: 2, tiles_y: 2, seed: 3 }),
            ShardPlan::new(&net, &HashCut { num_shards: 6, seed: 8 }),
        ] {
            let sh = Arc::new(ShardedNetwork::build(Arc::clone(&net), cut, 400.0));
            let finder = CandidateFinder::sharded(Arc::clone(&sh), 10);
            let bbox = net.bbox();
            for i in 0..40u32 {
                // Probe a grid of points, including ones near tile borders.
                let fx = f64::from(i % 8) / 7.0;
                let fy = f64::from(i / 8) / 4.0;
                let p = Vec2::new(
                    bbox.min.x + fx * (bbox.max.x - bbox.min.x),
                    bbox.min.y + fy * (bbox.max.y - bbox.min.y),
                );
                let a = whole.candidates(p);
                let b = finder.candidates(p);
                assert_eq!(a.len(), b.len(), "point {i}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.seg, y.seg, "point {i}");
                    assert_eq!(x.dist_m.to_bits(), y.dist_m.to_bits(), "point {i}");
                    assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "point {i}");
                }
                assert_eq!(whole.nearest(p), finder.nearest(p), "point {i}");
            }
        }
    }

    #[test]
    fn ratio_is_projection() {
        let net = generate_city(&NetworkConfig::with_size(8, 8, 17));
        let finder = CandidateFinder::new(&net, 3);
        let seg = net.segment(SegmentId(0));
        let p = seg.line.point_at(0.7);
        let c = finder
            .candidates(p)
            .into_iter()
            .find(|c| c.seg == SegmentId(0))
            .expect("own segment among candidates");
        assert!((c.ratio - 0.7).abs() < 1e-9);
    }
}
