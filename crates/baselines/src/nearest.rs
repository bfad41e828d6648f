//! The `Nearest` baseline: each GPS point maps to its geometrically nearest
//! segment; the route is stitched by the shared route planner.
//!
//! Fig. 2 of the paper shows why this is weak: only ~70 % of points have
//! their true segment as the nearest one.

use std::sync::Arc;

use trmma_roadnet::{RoadNetwork, RoutePlanner};
use trmma_traj::api::{stitch_route, CandidateFinder, MatchResult};
use trmma_traj::online::{OnlineMatcher, OnlineUpdate};
use trmma_traj::snapshot::{self, Reader, SnapshotError};
use trmma_traj::types::{GpsPoint, MatchedPoint};

/// Nearest-segment map matcher.
pub struct NearestMatcher {
    net: Arc<RoadNetwork>,
    planner: Arc<RoutePlanner>,
    finder: CandidateFinder,
}

impl NearestMatcher {
    /// Builds the matcher (R-tree constructed internally).
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, planner: Arc<RoutePlanner>) -> Self {
        let finder = CandidateFinder::new(&net, 1);
        Self { net, planner, finder }
    }

    /// Builds the matcher on a sharded network, searching the per-shard
    /// R-trees instead of one whole-network tree. Matches are identical to
    /// [`NearestMatcher::new`] — the finder's canonical ranking is a pure
    /// function of the segment set.
    #[must_use]
    pub fn sharded(
        sharded: Arc<trmma_roadnet::ShardedNetwork>,
        planner: Arc<RoutePlanner>,
    ) -> Self {
        let net = Arc::clone(sharded.net());
        let finder = CandidateFinder::sharded(sharded, 1);
        Self { net, planner, finder }
    }
}

/// Per-session state of the nearest matcher: each point's match is final the
/// moment it is pushed, so the session is just the matched prefix.
#[derive(Debug, Clone, Default)]
pub struct NearestSession {
    matched: Vec<MatchedPoint>,
}

/// Nearest is the degenerate online decoder: no global decoding means every
/// provisional match is already final and the watermark always equals the
/// number of pushed points. It keeps no per-query search state
/// (single-nearest R-tree probes allocate nothing worth pooling), so its
/// scratch is empty.
impl OnlineMatcher for NearestMatcher {
    const NAME: &'static str = "Nearest";
    type Scratch = ();
    type Session = NearestSession;

    fn make_scratch(&self) {}

    fn begin_session(&self) -> NearestSession {
        NearestSession::default()
    }

    fn advance(&self, (): &mut (), session: &mut NearestSession, point: GpsPoint) {
        let c = self.finder.nearest(point.pos).expect("non-empty road network");
        session.matched.push(MatchedPoint::new(c.seg, c.ratio, point.t));
    }

    fn update(&self, (): &mut (), session: &mut NearestSession) -> OnlineUpdate {
        OnlineUpdate {
            provisional: session.matched.last().copied(),
            stable_prefix: session.matched.len(),
        }
    }

    fn finalize(&self, (): &mut (), session: NearestSession) -> MatchResult {
        stitch_route(&self.net, &self.planner, session.matched)
    }

    fn session_len(&self, session: &NearestSession) -> usize {
        session.matched.len()
    }

    fn session_watermark(&self, session: &NearestSession) -> usize {
        // Every match is final the moment it is pushed.
        session.matched.len()
    }

    fn snapshot_session(&self, session: &NearestSession, out: &mut Vec<u8>) {
        snapshot::put_usize(out, session.matched.len());
        for m in &session.matched {
            snapshot::put_matched(out, m);
        }
    }

    fn restore_session(&self, bytes: &[u8]) -> Result<NearestSession, SnapshotError> {
        let mut r = Reader::new(bytes);
        let n = r.seq_len(20)?;
        let mut matched = Vec::with_capacity(n);
        for _ in 0..n {
            matched.push(r.matched()?);
        }
        r.expect_end()?;
        // `finalize` stitches the route through these ids.
        if matched.iter().any(|m| m.seg.idx() >= self.net.num_segments()) {
            return Err(SnapshotError::Malformed("matched segment out of range"));
        }
        Ok(NearestSession { matched })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trmma_roadnet::{generate_city, NetworkConfig};
    use trmma_traj::gen::{generate_trajectory, sparsify, TrajConfig};
    use trmma_traj::MapMatcher;

    #[test]
    fn restore_rejects_a_segment_the_route_stitch_cannot_index() {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(5, 5, 3)));
        let matcher = NearestMatcher::new(net.clone(), Arc::new(RoutePlanner::untrained(&net)));
        let mut session = matcher.begin_session();
        for (i, seg) in [0u32, 4, 9].into_iter().enumerate() {
            let p = net.segment(trmma_roadnet::SegmentId(seg)).line.point_at(0.5);
            matcher.push_point(&mut (), &mut session, GpsPoint { pos: p, t: i as f64 });
        }
        let encode = |s: &NearestSession| {
            let mut bytes = Vec::new();
            matcher.snapshot_session(s, &mut bytes);
            bytes
        };
        let genuine = encode(&session);
        let back = matcher.restore_session(&genuine).expect("a genuine session restores");
        assert_eq!(encode(&back), genuine);

        let mut bad = session.clone();
        bad.matched[1].seg = trmma_roadnet::SegmentId(net.num_segments() as u32);
        assert_eq!(
            matcher.restore_session(&encode(&bad)).err(),
            Some(SnapshotError::Malformed("matched segment out of range"))
        );
        assert_eq!(matcher.finalize(&mut (), back), matcher.finalize(&mut (), session));
    }

    #[test]
    fn nearest_matches_points_and_stitches_route() {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(8, 8, 31)));
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let matcher = NearestMatcher::new(net.clone(), planner);
        let cfg = TrajConfig { min_points: 10, ..TrajConfig::default() };
        let mut rng = StdRng::seed_from_u64(4);
        // Two-way roads share identical geometry, so the nearest segment is
        // frequently the reverse twin of the truth — exactly why the paper's
        // Fig. 2 reports only ~70 % top-1 coverage — and points dwelling at
        // intersections tie with cross streets. Up to direction, the nearest
        // segment should usually be the right street; assert statistically
        // over several trajectories.
        let mut correct_street = 0usize;
        let mut total = 0usize;
        for _ in 0..6 {
            let Some(raw) = generate_trajectory(&net, &cfg, &mut rng) else { continue };
            let sample = sparsify(&raw, 0.3, &mut rng);
            let res = matcher.match_trajectory(&sample.sparse);
            assert_eq!(res.matched.len(), sample.sparse.len());
            assert!(res.route.is_valid(&net), "stitched route must be a path");
            correct_street += res
                .matched
                .iter()
                .zip(&sample.sparse_truth)
                .filter(|(m, t)| m.seg == t.seg || net.reverse_twin(m.seg) == Some(t.seg))
                .count();
            total += sample.sparse_truth.len();
        }
        assert!(total > 0);
        assert!(
            correct_street * 5 >= total * 3,
            "nearest street wrong too often: {correct_street}/{total}"
        );
    }
}
