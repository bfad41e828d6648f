//! Property tests for route stitching (`trmma_roadnet::planner`).
//!
//! The planner's search runs on precomputed per-edge weights and dense,
//! generation-stamped per-thread state. Its *output* is pinned by the
//! exact pop order of `std::collections::BinaryHeap` among equal-cost
//! states (the common case on a grid with Laplace-smoothed counts), so the
//! contract is bit-for-bit agreement with the search the repository shipped
//! before that rewrite. That search lives on here, verbatim, as
//! [`Reference`] — written against the public API only (`transition_prob`,
//! `successors`, `reverse_twin`) with fresh `HashMap`s and a fresh heap per
//! gap — and every test below differs the library against it:
//!
//! * arbitrary integer-geometry worlds, arbitrary fitted routes, arbitrary
//!   `(src, dst)` pairs and caps `{1, 40, default}` — tie-heavy *untrained*
//!   grids included — for both `plan` and `connect`;
//! * `observe` interleaved between plans (cached weights are invalidated,
//!   never stale);
//! * one thread alternating two networks of different segment counts (the
//!   per-thread search state is re-sized, stamps never leak across);
//! * N threads sharing one `Arc<RoutePlanner>` racing on first use (the
//!   lazily built weights are built once and agree everywhere).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trmma::roadnet::shortest::{node_path, Weight};
use trmma::roadnet::{generate_city, NetworkConfig, RoadNetwork, RoutePlanner, SegmentId};
use trmma::traj::gen::{generate_trajectory, TrajConfig};

/// The planner's own default cap (`DEFAULT_MAX_SETTLED`), which
/// [`Reference`] must hold itself: the library has no getter for it.
const DEFAULT_CAP: usize = 50_000;

#[derive(Debug, PartialEq)]
struct Item {
    cost: f64,
    seg: u32,
}
impl Eq for Item {}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `plan` / `connect` as they were before the search moved onto
/// precomputed weights and dense state; the only edits are `self.` →
/// `self.planner.` for the probabilities and the locally held cap.
struct Reference<'a> {
    planner: &'a RoutePlanner,
    max_settled: usize,
}

impl Reference<'_> {
    fn plan(&self, net: &RoadNetwork, src: SegmentId, dst: SegmentId) -> Option<Vec<SegmentId>> {
        if src == dst {
            return Some(vec![src]);
        }
        if let Some(path) = self.plan_statistical(net, src, dst) {
            return Some(path);
        }
        self.plan_fastest(net, src, dst)
    }

    fn plan_statistical(
        &self,
        net: &RoadNetwork,
        src: SegmentId,
        dst: SegmentId,
    ) -> Option<Vec<SegmentId>> {
        let mut dist: HashMap<u32, f64> = HashMap::new();
        let mut prev: HashMap<u32, u32> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(src.0, 0.0);
        heap.push(Item { cost: 0.0, seg: src.0 });
        let mut settled = 0usize;
        while let Some(Item { cost, seg }) = heap.pop() {
            if seg == dst.0 {
                let mut path = vec![dst];
                let mut cur = dst.0;
                while cur != src.0 {
                    cur = prev[&cur];
                    path.push(SegmentId(cur));
                }
                path.reverse();
                return Some(path);
            }
            if cost > *dist.get(&seg).unwrap_or(&f64::INFINITY) {
                continue;
            }
            settled += 1;
            if settled > self.max_settled {
                return None;
            }
            for &next in net.successors(SegmentId(seg)) {
                // Forbid immediate U-turns unless the segment dead-ends:
                // historical trajectories essentially never bounce back.
                if Some(next) == net.reverse_twin(SegmentId(seg))
                    && net.successors(SegmentId(seg)).len() > 1
                {
                    continue;
                }
                let p = self.planner.transition_prob(net, SegmentId(seg), next);
                let nc = cost - p.ln();
                if nc < *dist.get(&next.0).unwrap_or(&f64::INFINITY) {
                    dist.insert(next.0, nc);
                    prev.insert(next.0, seg);
                    heap.push(Item { cost: nc, seg: next.0 });
                }
            }
        }
        None
    }

    fn plan_fastest(
        &self,
        net: &RoadNetwork,
        src: SegmentId,
        dst: SegmentId,
    ) -> Option<Vec<SegmentId>> {
        let (_, mid) = node_path(
            net,
            net.segment(src).to,
            net.segment(dst).from,
            Weight::Time,
            f64::INFINITY,
        )?;
        let mut path = Vec::with_capacity(mid.len() + 2);
        path.push(src);
        path.extend(mid);
        path.push(dst);
        Some(path)
    }

    fn connect(&self, net: &RoadNetwork, matched: &[SegmentId]) -> Option<Vec<SegmentId>> {
        let mut route: Vec<SegmentId> = Vec::with_capacity(matched.len());
        for &seg in matched {
            match route.last() {
                None => route.push(seg),
                Some(&last) if last == seg => {}
                Some(&last) if net.segment(last).to == net.segment(seg).from => route.push(seg),
                Some(&last) => {
                    let gap = self.plan(net, last, seg)?;
                    route.extend(&gap[1..]);
                }
            }
        }
        Some(route)
    }
}

/// A city with *integer* geometry (no jitter, no diagonals), the same
/// construction as `props_shard::integer_world`: 6×6 .. 8×8 grids whose
/// untrained transition costs tie everywhere.
fn integer_net(net_seed: u64) -> RoadNetwork {
    let side = 6 + (net_seed % 3) as usize;
    generate_city(&NetworkConfig {
        jitter_frac: 0.0,
        p_diagonal: 0.0,
        ..NetworkConfig::with_size(side, side, net_seed)
    })
}

/// Up to `n` generated ground-truth routes on `net` to fit a planner on.
fn routes(net: &RoadNetwork, seed: u64, n: usize) -> Vec<Vec<SegmentId>> {
    let cfg = TrajConfig { min_points: 8, ..TrajConfig::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..2 * n)
        .filter_map(|_| generate_trajectory(net, &cfg, &mut rng))
        .take(n)
        .map(|r| r.route.segs)
        .collect()
}

fn random_seg(net: &RoadNetwork, rng: &mut StdRng) -> SegmentId {
    SegmentId(rng.gen_range(0..net.num_segments() as u32))
}

/// Differs `plan` on `pairs` random pairs and `connect` on one random
/// matched sequence (duplicates and adjacent pairs included) against the
/// reference holding `cap`.
fn assert_agrees(net: &RoadNetwork, planner: &RoutePlanner, cap: usize, seed: u64, pairs: usize) {
    let reference = Reference { planner, max_settled: cap };
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..pairs {
        let (src, dst) = (random_seg(net, &mut rng), random_seg(net, &mut rng));
        assert_eq!(
            planner.plan(net, src, dst),
            reference.plan(net, src, dst),
            "plan({src:?}, {dst:?}) diverged at cap {cap}"
        );
    }
    let mut matched = Vec::new();
    for _ in 0..6 {
        let seg = random_seg(net, &mut rng);
        matched.push(seg);
        match rng.gen_range(0..3u32) {
            0 => matched.push(seg),
            1 => matched.push(net.successors(seg)[0]),
            _ => {}
        }
    }
    assert_eq!(
        planner.connect(net, &matched),
        reference.connect(net, &matched),
        "connect({matched:?}) diverged at cap {cap}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `plan` and `connect` equal the reference bit for bit: arbitrary
    /// worlds, untrained (every cost ties) or fitted on arbitrary routes,
    /// arbitrary pairs, and caps that force the fastest-route fallback
    /// always (1), sometimes (40) or never (default).
    #[test]
    fn plan_and_connect_equal_the_reference(
        net_seed in 0u64..1_000,
        fit_seed in 0u64..1_000,
        n_routes in 0usize..12,
        pair_seed in 0u64..1_000,
    ) {
        let net = integer_net(net_seed);
        let fitted = routes(&net, fit_seed, n_routes);
        let mut planner = RoutePlanner::fit(&net, fitted.iter().map(Vec::as_slice));
        for cap in [1, 40, DEFAULT_CAP] {
            planner.set_max_settled(cap);
            assert_agrees(&net, &planner, cap, pair_seed, 16);
        }
    }

    /// `observe` between plans: the weights cached by the earlier plans
    /// must be rebuilt, so every round agrees with a reference reading the
    /// live counts.
    #[test]
    fn observe_between_plans_invalidates_weights(
        net_seed in 0u64..1_000,
        fit_seed in 0u64..1_000,
        pair_seed in 0u64..1_000,
    ) {
        let net = integer_net(net_seed);
        let mut planner = RoutePlanner::untrained(&net);
        assert_agrees(&net, &planner, DEFAULT_CAP, pair_seed, 8);
        for (round, route) in routes(&net, fit_seed, 4).iter().enumerate() {
            // Observed often enough to outweigh the smoothing and move routes.
            for _ in 0..20 {
                planner.observe(route);
            }
            assert_agrees(&net, &planner, DEFAULT_CAP, pair_seed + round as u64, 8);
        }
    }
}

/// One thread alternating between a small and a large network: the
/// per-thread search state is sized for whichever came last and stamps
/// written for one network never answer for the other.
#[test]
fn alternating_networks_resize_the_search_state() {
    let small = generate_city(&NetworkConfig {
        jitter_frac: 0.0,
        p_diagonal: 0.0,
        ..NetworkConfig::with_size(5, 5, 3)
    });
    let large = generate_city(&NetworkConfig::with_size(12, 12, 4));
    assert_ne!(small.num_segments(), large.num_segments());
    let small_planner = RoutePlanner::untrained(&small);
    let large_routes = routes(&large, 9, 6);
    let large_planner = RoutePlanner::fit(&large, large_routes.iter().map(Vec::as_slice));
    for round in 0..6 {
        assert_agrees(&large, &large_planner, DEFAULT_CAP, round, 6);
        assert_agrees(&small, &small_planner, DEFAULT_CAP, round, 6);
    }
}

/// Eight threads released together onto one shared, never-used planner:
/// whoever wins the race to build the weights, every thread's plans equal
/// the reference.
#[test]
fn threads_racing_on_first_use_agree() {
    const THREADS: usize = 8;
    let net = Arc::new(integer_net(11));
    let fitted = routes(&net, 5, 8);
    let planner = Arc::new(RoutePlanner::fit(&net, fitted.iter().map(Vec::as_slice)));
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS as u64)
        .map(|seed| {
            let (net, planner, barrier) = (net.clone(), planner.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                assert_agrees(&net, &planner, DEFAULT_CAP, seed, 12);
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("a racing thread diverged from the reference");
    }
}
