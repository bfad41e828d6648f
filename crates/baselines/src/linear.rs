//! Map-match-then-interpolate recovery (the `Linear` baseline family).
//!
//! Given any [`MapMatcher`], recovery proceeds exactly as Table III/IV's
//! `Linear`, `MMA+linear` and `Nearest+linear` rows: match the sparse
//! points, stitch the route, then place each missing ε-tick at the linearly
//! interpolated *route distance* between its bracketing observations.

use std::sync::Arc;

use trmma_roadnet::{RoadNetwork, SegmentId};
use trmma_traj::api::{epsilon_ticks, MapMatcher, TrajectoryRecovery};
use trmma_traj::types::{MatchedPoint, MatchedTrajectory, Route, Trajectory};

/// Linear-interpolation recovery over any matcher's route.
pub struct LinearRecovery<M: MapMatcher> {
    net: Arc<RoadNetwork>,
    matcher: M,
    name: &'static str,
}

impl<M: MapMatcher> LinearRecovery<M> {
    /// Wraps `matcher`; `name` labels the method in experiment tables
    /// (e.g. "Linear", "MMA+linear").
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, matcher: M, name: &'static str) -> Self {
        Self { net, matcher, name }
    }

    /// Access to the wrapped matcher.
    #[must_use]
    pub fn matcher(&self) -> &M {
        &self.matcher
    }
}

/// Cumulative route geometry: prefix sums of segment lengths plus lookup of
/// a distance offset back to `(segment, ratio)`.
pub(crate) struct RouteScale {
    segs: Vec<SegmentId>,
    prefix: Vec<f64>, // prefix[i] = distance from route start to segs[i] entrance
    total: f64,
}

impl RouteScale {
    pub(crate) fn new(net: &RoadNetwork, route: &Route) -> Self {
        let mut prefix = Vec::with_capacity(route.len());
        let mut acc = 0.0;
        for &s in &route.segs {
            prefix.push(acc);
            acc += net.segment(s).length;
        }
        Self { segs: route.segs.clone(), prefix, total: acc }
    }

    /// Route-start distance of a matched position, searching from
    /// `from_idx` forward (handles repeated segments on a route).
    pub(crate) fn offset_of(
        &self,
        net: &RoadNetwork,
        seg: SegmentId,
        ratio: f64,
        from_idx: usize,
    ) -> Option<(usize, f64)> {
        let idx = self.segs[from_idx.min(self.segs.len())..].iter().position(|&s| s == seg)?
            + from_idx.min(self.segs.len());
        Some((idx, self.prefix[idx] + ratio * net.segment(self.segs[idx]).length))
    }

    /// Inverse mapping: a distance offset to `(segment, ratio)`.
    pub(crate) fn locate(&self, net: &RoadNetwork, offset: f64) -> (SegmentId, f64) {
        let clamped = offset.clamp(0.0, self.total.max(0.0));
        // partition_point: first index whose prefix exceeds `clamped`.
        let idx = self.prefix.partition_point(|&p| p <= clamped).saturating_sub(1);
        let seg = self.segs[idx];
        let len = net.segment(seg).length.max(f64::MIN_POSITIVE);
        ((seg), ((clamped - self.prefix[idx]) / len).min(1.0))
    }
}

impl<M: MapMatcher> TrajectoryRecovery for LinearRecovery<M> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn recover(&self, traj: &Trajectory, epsilon_s: f64) -> MatchedTrajectory {
        let result = self.matcher.match_trajectory(traj);
        if result.matched.is_empty() {
            return MatchedTrajectory::default();
        }
        let scale = RouteScale::new(&self.net, &result.route);
        let mut out: Vec<MatchedPoint> = Vec::new();
        let first = &result.matched[0];
        // Route index of the previous observation.
        let (mut cursor, mut prev_off) =
            scale.offset_of(&self.net, first.seg, first.ratio, 0).unwrap_or((0, 0.0));
        out.push(*first);
        for w in result.matched.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let (b_idx, b_off) =
                scale.offset_of(&self.net, b.seg, b.ratio, cursor).unwrap_or((cursor, prev_off));
            let b_off = b_off.max(prev_off); // guard against backtracking noise
            let interval = b.t - a.t;
            let missing = if interval > 0.0 {
                epsilon_ticks(interval, epsilon_s).saturating_sub(1)
            } else {
                0
            };
            for j in 1..=missing {
                let f = j as f64 / (missing + 1) as f64;
                let off = prev_off + f * (b_off - prev_off);
                let (seg, ratio) = scale.locate(&self.net, off);
                out.push(MatchedPoint::new(seg, ratio, a.t + j as f64 * epsilon_s));
            }
            out.push(*b);
            cursor = b_idx;
            prev_off = b_off;
        }
        MatchedTrajectory::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nearest::NearestMatcher;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trmma_roadnet::{generate_city, NetworkConfig, RoutePlanner};
    use trmma_traj::gen::{generate_trajectory, sparsify, TrajConfig};
    use trmma_traj::metrics::recovery_metrics;

    fn setup() -> (Arc<RoadNetwork>, LinearRecovery<NearestMatcher>, TrajConfig) {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(12, 12, 61)));
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let matcher = NearestMatcher::new(net.clone(), planner);
        let rec = LinearRecovery::new(net.clone(), matcher, "Linear");
        (net, rec, TrajConfig { min_points: 14, min_od_dist_m: 900.0, ..TrajConfig::default() })
    }

    #[test]
    fn recovered_length_matches_ground_truth() {
        let (net, rec, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let raw = generate_trajectory(&net, &cfg, &mut rng).unwrap();
        let s = sparsify(&raw, 0.25, &mut rng);
        let recovered = rec.recover(&s.sparse, cfg.epsilon_s);
        assert_eq!(
            recovered.len(),
            s.dense_truth.len(),
            "ε-grid alignment must reproduce the dense length"
        );
        // Timestamps form the ε grid.
        assert!(recovered.satisfies_epsilon(cfg.epsilon_s, 1e-6));
    }

    #[test]
    fn recovery_quality_is_reasonable() {
        let (net, rec, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut acc = 0.0;
        let mut n = 0;
        for _ in 0..5 {
            let Some(raw) = generate_trajectory(&net, &cfg, &mut rng) else { continue };
            let s = sparsify(&raw, 0.3, &mut rng);
            let recovered = rec.recover(&s.sparse, cfg.epsilon_s);
            let m = recovery_metrics(&net, &recovered, &s.dense_truth, None);
            acc += m.accuracy;
            n += 1;
        }
        let mean = acc / f64::from(n);
        assert!(mean > 0.25, "linear recovery accuracy too low: {mean}");
    }

    #[test]
    fn ratios_stay_in_unit_interval_and_times_monotonic() {
        let (net, rec, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let raw = generate_trajectory(&net, &cfg, &mut rng).unwrap();
        let s = sparsify(&raw, 0.2, &mut rng);
        let recovered = rec.recover(&s.sparse, cfg.epsilon_s);
        for p in &recovered.points {
            assert!((0.0..=1.0).contains(&p.ratio));
        }
        for w in recovered.points.windows(2) {
            assert!(w[1].t > w[0].t);
        }
    }

    #[test]
    fn route_scale_round_trips() {
        let (net, _, _) = setup();
        let planner = RoutePlanner::untrained(&net);
        let src = SegmentId(0);
        let dst = SegmentId((net.num_segments() / 3) as u32);
        let route = Route::new(planner.plan(&net, src, dst).unwrap());
        let scale = RouteScale::new(&net, &route);
        for (i, &seg) in route.segs.iter().enumerate() {
            for ratio in [0.0, 0.3, 0.9] {
                let (idx, off) = scale.offset_of(&net, seg, ratio, i).unwrap();
                assert_eq!(idx, i);
                let (seg2, ratio2) = scale.locate(&net, off);
                assert_eq!(seg2, seg);
                assert!((ratio2 - ratio).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let (_, rec, cfg) = setup();
        let recovered = rec.recover(&Trajectory::default(), cfg.epsilon_s);
        assert!(recovered.is_empty());
    }

    #[test]
    fn unusable_epsilon_is_rejected_by_name() {
        let (net, rec, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let raw = generate_trajectory(&net, &cfg, &mut rng).unwrap();
        let s = sparsify(&raw, 0.25, &mut rng);
        crate::test_support::assert_rejects_unusable_epsilon(&rec, &s.sparse);
    }

    #[test]
    fn non_positive_intervals_have_no_missing_points() {
        let (net, rec, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let raw = generate_trajectory(&net, &cfg, &mut rng).unwrap();
        let mut sparse = sparsify(&raw, 0.25, &mut rng).sparse;
        // Equal and decreasing timestamps: every gap has interval <= 0.
        let t0 = sparse.points[0].t;
        for (i, p) in sparse.points.iter_mut().enumerate() {
            p.t = t0 - (i / 2) as f64;
        }
        assert_eq!(rec.recover(&sparse, cfg.epsilon_s).len(), sparse.len());
    }
}
