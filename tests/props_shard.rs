//! Property tests for the sharded network (`trmma_roadnet::shard`):
//!
//! * **Decode identity** — for *every* `OnlineMatcher` in the repository
//!   (Nearest, HMM, FMM, LHMM, MMA), matching on a `ShardedNetwork` is
//!   bitwise-identical to the monolithic matcher — offline decode, online
//!   push/finalize replay and per-update watermarks — over arbitrary
//!   generated road networks, tile counts and cut seeds, for both the
//!   locality-preserving grid cut and the adversarial hash cut;
//! * **Overlay soundness** — `ShardedNetwork::node_dist` (intra-shard hop +
//!   boundary overlay + intra-shard hop, minimized over border pairs)
//!   answers bitwise-identically to a whole-graph `DistTable::build` at the
//!   same bound, for every node pair, within and across shards;
//! * **Border crossing** — the identity holds on trajectories whose matched
//!   route provably crosses a shard border, and the merged per-shard
//!   candidate search returns the exact canonical candidate list even for
//!   points whose candidate set straddles the boundary;
//! * a hand-computed pinned two-shard chain built through the public API.
//!
//! Networks are generated with zero coordinate jitter and no diagonals so
//! every edge length is an exact multiple of the grid spacing: path sums
//! are then exact in `f64` regardless of summation grouping, which is what
//! lets the decomposed (prefix + overlay + suffix) distances reproduce the
//! monolithic Dijkstra sums *bitwise* rather than approximately.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher, NearestMatcher};
use trmma::core::{Mma, MmaConfig};
use trmma::geom::Vec2;
use trmma::roadnet::{
    generate_city, DistTable, GridCut, HashCut, NetworkConfig, NodeId, RoadClass, RoadNetwork,
    RoutePlanner, ShardPlan, ShardedNetwork,
};
use trmma::traj::gen::{generate_trajectory, sparsify, TrajConfig};
use trmma::traj::types::Trajectory;
use trmma::traj::{CandidateFinder, MapMatcher, MatchResult, OnlineMatcher, Sample};

/// A city with *integer* geometry (no jitter, no diagonals — every edge an
/// exact multiple of the spacing) plus a handful of sparse samples.
fn integer_world(net_seed: u64, traj_seed: u64) -> (Arc<RoadNetwork>, Vec<Sample>) {
    let side = 6 + (net_seed % 3) as usize; // 6x6 .. 8x8 grids
    let net = Arc::new(generate_city(&NetworkConfig {
        jitter_frac: 0.0,
        p_diagonal: 0.0,
        ..NetworkConfig::with_size(side, side, net_seed)
    }));
    let cfg = TrajConfig { min_points: 8, ..TrajConfig::default() };
    let mut rng = StdRng::seed_from_u64(traj_seed);
    let mut samples = Vec::new();
    for _ in 0..10 {
        if samples.len() == 4 {
            break;
        }
        if let Some(raw) = generate_trajectory(&net, &cfg, &mut rng) {
            samples.push(sparsify(&raw, 0.3, &mut rng));
        }
    }
    (net, samples)
}

/// Cuts `net` into `tiles` shards: grid cut (the deployment shape) or hash
/// cut (adversarial — almost every edge crosses, the overlay carries
/// essentially all traffic).
fn cut(net: &RoadNetwork, tiles: usize, seed: u64, hash: bool) -> ShardPlan {
    if hash {
        ShardPlan::new(net, &HashCut { num_shards: tiles, seed })
    } else {
        ShardPlan::new(net, &GridCut::square(tiles, seed))
    }
}

/// Bit-level equality of two match results: `PartialEq` plus explicit bit
/// checks on the float fields (`==` would also accept `0.0 == -0.0`).
fn assert_bitwise(a: &MatchResult, b: &MatchResult, who: &str) {
    assert_eq!(a, b, "{who}: decode diverged");
    for (x, y) in a.matched.iter().zip(&b.matched) {
        assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "{who}: ratio bits diverged");
        assert_eq!(x.t.to_bits(), y.t.to_bits(), "{who}: timestamp bits diverged");
    }
}

/// Asserts the full decode-identity contract between a monolithic matcher
/// and its sharded twin: offline decode, lock-step online updates
/// (provisional match + watermark) and the finalized replay all bitwise
/// equal, and replay equals offline on both sides.
fn assert_sharded_identical<M: OnlineMatcher>(mono: &M, sh: &M, batch: &[Trajectory]) {
    for traj in batch {
        let offline = mono.match_trajectory(traj);
        let offline_sh = sh.match_trajectory(traj);
        assert_bitwise(&offline, &offline_sh, M::NAME);

        let (mut mscratch, mut msession) = (mono.make_scratch(), mono.begin_session());
        let (mut sscratch, mut ssession) = (sh.make_scratch(), sh.begin_session());
        for (i, &p) in traj.points.iter().enumerate() {
            let a = mono.push_point(&mut mscratch, &mut msession, p);
            let b = sh.push_point(&mut sscratch, &mut ssession, p);
            assert_eq!(a, b, "{}: online update diverged at point {i}", M::NAME);
        }
        let fin = mono.finalize(&mut mscratch, msession);
        let fin_sh = sh.finalize(&mut sscratch, ssession);
        assert_bitwise(&fin, &fin_sh, M::NAME);
        assert_bitwise(&fin, &offline, M::NAME);
    }
}

/// How many consecutive matched-route segment pairs sit in different
/// shards — `> 0` means the decode genuinely exercised the overlay.
fn route_crossings(net: &RoadNetwork, plan: &ShardPlan, r: &MatchResult) -> usize {
    r.route
        .segs
        .windows(2)
        .filter(|w| {
            let a = plan.shard_of(net.segments()[w[0].idx()].from);
            let b = plan.shard_of(net.segments()[w[1].idx()].from);
            a != b
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every `OnlineMatcher` decodes bitwise-identically on a sharded
    /// network, for arbitrary worlds, tile counts, cut seeds and both cut
    /// strategies — offline and online paths.
    #[test]
    fn every_matcher_decodes_identically_sharded(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        tiles in 2usize..7,
        cut_seed in 0u64..1_000,
        cut_kind in 0u64..2,
    ) {
        let hash_cut = cut_kind == 1;
        let (net, samples) = integer_world(net_seed, traj_seed);
        if samples.is_empty() {
            // A barren seed pair (all OD draws too short) proves nothing;
            // skip rather than fail — other cases cover the property.
            return Ok(());
        }
        let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
        let cfg = HmmConfig::default();
        let plan = cut(&net, tiles, cut_seed, hash_cut);
        let sharded = Arc::new(ShardedNetwork::build(net.clone(), plan, cfg.max_route_m));
        let planner = Arc::new(RoutePlanner::untrained(&net));

        let near = NearestMatcher::new(net.clone(), planner.clone());
        let near_sh = NearestMatcher::sharded(sharded.clone(), planner.clone());
        assert_sharded_identical(&near, &near_sh, &batch);

        let hmm = HmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let hmm_sh = HmmMatcher::sharded(sharded.clone(), planner.clone(), cfg.clone());
        assert_sharded_identical(&hmm, &hmm_sh, &batch);

        let fmm = FmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let fmm_sh = FmmMatcher::sharded(sharded.clone(), planner.clone(), cfg.clone());
        assert_sharded_identical(&fmm, &fmm_sh, &batch);

        let lhmm = LhmmMatcher::fit(net.clone(), planner.clone(), cfg.clone(), &samples);
        let lhmm_sh =
            LhmmMatcher::fit_sharded(sharded.clone(), planner.clone(), cfg, &samples);
        assert_sharded_identical(&lhmm, &lhmm_sh, &batch);

        // The RNG draws in `Mma::new` precede the finder swap, so the two
        // instances carry bitwise-identical (untrained) weights.
        let mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        let mma_sh = Mma::sharded(sharded, planner, None, MmaConfig::small());
        assert_sharded_identical(&mma, &mma_sh, &batch);
    }

    /// Overlay soundness: the decomposed distance (intra + overlay + intra,
    /// minimized over border pairs) answers bitwise-identically to a
    /// whole-graph `DistTable` at the same bound, for *every* node pair —
    /// same reachability set, same distance bits.
    #[test]
    fn sharded_node_dist_equals_whole_graph_table(
        net_seed in 0u64..1_000,
        tiles in 2usize..9,
        cut_seed in 0u64..1_000,
        cut_kind in 0u64..2,
        delta in 300.0f64..2_500.0,
    ) {
        let hash_cut = cut_kind == 1;
        let side = 5 + (net_seed % 3) as usize;
        let net = Arc::new(generate_city(&NetworkConfig {
            jitter_frac: 0.0,
            p_diagonal: 0.0,
            ..NetworkConfig::with_size(side, side, net_seed)
        }));
        let plan = cut(&net, tiles, cut_seed, hash_cut);
        let sh = ShardedNetwork::build(net.clone(), plan, delta);
        let mono = DistTable::build(&net, delta);
        for s in 0..net.num_nodes() as u32 {
            for d in 0..net.num_nodes() as u32 {
                prop_assert_eq!(
                    sh.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits),
                    mono.query(NodeId(s), NodeId(d)).map(f64::to_bits),
                    "distance diverged for {}->{}", s, d
                );
            }
        }
    }
}

/// Finds a world where an HMM-matched route provably crosses a shard
/// border and a GPS point whose candidate set straddles the boundary, then
/// checks the identity there: the interesting case is pinned, not left to
/// the proptest sampler's luck.
#[test]
fn border_crossing_decode_and_straddling_candidates_identical() {
    let cfg = HmmConfig::default();
    let mut crossing_seen = false;
    let mut straddle_seen = false;
    for seed in 0..24u64 {
        let (net, samples) = integer_world(seed, seed.wrapping_mul(31).wrapping_add(7));
        if samples.is_empty() {
            continue;
        }
        let plan = cut(&net, 4, seed, false);
        let sharded = Arc::new(ShardedNetwork::build(net.clone(), plan, cfg.max_route_m));
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let hmm_sh = HmmMatcher::sharded(sharded.clone(), planner.clone(), cfg.clone());
        let finder = CandidateFinder::new(&net, cfg.k_candidates);
        let finder_sh = CandidateFinder::sharded(sharded.clone(), cfg.k_candidates);

        for s in &samples {
            let mono = hmm.match_trajectory(&s.sparse);
            if route_crossings(&net, sharded.plan(), &mono) == 0 {
                continue;
            }
            crossing_seen = true;
            assert_bitwise(&mono, &hmm_sh.match_trajectory(&s.sparse), "HMM across a border");

            // Candidate identity at every point of the crossing trajectory;
            // a point whose candidates span ≥ 2 shards is the straddler.
            for p in &s.sparse.points {
                let want = finder.candidates(p.pos);
                let got = finder_sh.candidates(p.pos);
                assert_eq!(got.len(), want.len(), "candidate count diverged");
                let mut shards_hit = std::collections::HashSet::new();
                for (a, b) in want.iter().zip(&got) {
                    assert_eq!(a.seg, b.seg, "candidate ranking diverged");
                    assert_eq!(a.dist_m.to_bits(), b.dist_m.to_bits(), "candidate dist bits");
                    assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "candidate ratio bits");
                    shards_hit.insert(sharded.plan().shard_of(net.segments()[a.seg.idx()].from));
                }
                straddle_seen |= shards_hit.len() >= 2;
            }
        }
        if crossing_seen && straddle_seen {
            return;
        }
    }
    panic!("fixture too weak: crossing={crossing_seen}, straddle={straddle_seen} after 24 seeds");
}

/// The hand-computed pinned case, built through the public API: a one-way
/// five-node chain 0 →100m→ 1 →100m→ 2 →100m→ 3 →100m→ 4 cut into
/// {0,1,2} | {3,4} at delta 250 m. One cross edge (2→3), so the overlay is
/// the single record 2→3 = 100, and every cross-shard answer decomposes as
/// intra + overlay + intra by hand.
#[test]
fn pinned_two_shard_chain_matches_hand_computation() {
    let pos: Vec<Vec2> = (0..5).map(|i| Vec2::new(100.0 * f64::from(i), 0.0)).collect();
    let edges: Vec<(NodeId, NodeId, RoadClass)> =
        (0..4).map(|i| (NodeId(i), NodeId(i + 1), RoadClass::Local)).collect();
    let net = Arc::new(RoadNetwork::new(pos, edges));
    let plan = ShardPlan::from_assignment(2, vec![0, 0, 0, 1, 1], 5);
    let sh = ShardedNetwork::build(net.clone(), plan, 250.0);

    assert_eq!(sh.num_shards(), 2);
    assert_eq!(sh.overlay().len(), 1);
    assert_eq!(sh.overlay().query(NodeId(2), NodeId(3)), Some(100.0));
    // 2→4 = intra(2,2)=0 + overlay(2,3)=100 + intra(3,4)=100.
    assert_eq!(sh.node_dist(NodeId(2), NodeId(4)), Some(200.0));
    // 1→3 = intra(1,2)=100 + overlay(2,3)=100 + intra(3,3)=0.
    assert_eq!(sh.node_dist(NodeId(1), NodeId(3)), Some(200.0));
    // 1→4 would be 300 m — beyond delta, so unreachable, same as monolithic.
    assert_eq!(sh.node_dist(NodeId(1), NodeId(4)), None);
    // Same-shard answers come straight from the intra tables.
    assert_eq!(sh.node_dist(NodeId(0), NodeId(2)), Some(200.0));
    assert_eq!(sh.node_dist(NodeId(3), NodeId(4)), Some(100.0));
    // One-way chain: nothing goes backwards.
    assert_eq!(sh.node_dist(NodeId(4), NodeId(0)), None);

    // And the whole-graph table agrees pair-for-pair, bit-for-bit.
    let mono = DistTable::build(&net, 250.0);
    for s in 0..5u32 {
        for d in 0..5u32 {
            assert_eq!(
                sh.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits),
                mono.query(NodeId(s), NodeId(d)).map(f64::to_bits),
                "{s}->{d}"
            );
        }
    }
}
