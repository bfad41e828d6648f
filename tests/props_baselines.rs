//! Property tests for the pooled baseline matchers and their shortest-path
//! substrate:
//!
//! * pooled HMM / LHMM / FMM output through `par_match_pooled` is
//!   bitwise-identical to the sequential per-call API for arbitrary
//!   generated road networks, trajectories, thread counts and input orders
//!   (mirrors `tests/props_batch.rs` for the MMA engine);
//! * `SsspPool` reuse across interleaved sources never leaks state — a
//!   pooled query after N arbitrary prior queries equals a fresh-pool
//!   query;
//! * the lattice step's `TransitionProvider::route_dist_matrix` equals
//!   per-pair `route_dist` bit for bit on the Dijkstra, table and sharded
//!   backends, over real and salted candidate rows;
//! * `DistCache` read-through stays consistent under concurrent hammering
//!   from scoped threads (hit/miss counters add up, every answer is the
//!   true distance).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher};
use trmma::core::{par_match_pooled, BatchOptions};
use trmma::roadnet::shortest::{node_dist, DistCache, NetPos, SsspPool, Weight};
use trmma::roadnet::{
    generate_city, DistTable, GridCut, NetworkConfig, NodeId, RoadNetwork, RouteMatrix,
    RoutePlanner, SegmentId, ShardPlan, ShardedNetwork, TransitionProvider,
};
use trmma::traj::gen::{generate_trajectory, sparsify, TrajConfig};
use trmma::traj::types::Trajectory;
use trmma::traj::{
    CandidateFinder, CandidateScratch, MapMatcher, MatchResult, OnlineMatcher, Sample,
};

/// Generates a city plus a handful of sparse samples from a seed pair.
fn arbitrary_world(net_seed: u64, traj_seed: u64) -> (Arc<RoadNetwork>, Vec<Sample>) {
    let side = 6 + (net_seed % 3) as usize; // 6x6 .. 8x8 grids
    let net = Arc::new(generate_city(&NetworkConfig::with_size(side, side, net_seed)));
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

/// Asserts that the pooled parallel fan-out reproduces the sequential
/// per-call output exactly, in the given order and in a shuffled order.
fn assert_pooled_identical<M: OnlineMatcher>(
    matcher: &M,
    batch: &[Trajectory],
    threads: usize,
    order: &[usize],
) {
    let reference: Vec<MatchResult> = batch.iter().map(|t| matcher.match_trajectory(t)).collect();
    let opts = BatchOptions::with_threads(threads);
    let (got, _) = par_match_pooled(matcher, batch, opts);
    assert_eq!(got, reference, "{} diverged at {threads} threads", M::NAME);
    let shuffled: Vec<Trajectory> = order.iter().map(|&i| batch[i].clone()).collect();
    let (got_shuffled, _) = par_match_pooled(matcher, &shuffled, opts);
    for (slot, &src) in order.iter().enumerate() {
        assert_eq!(
            got_shuffled[slot],
            reference[src],
            "{} shuffle broke keying at {threads} threads",
            M::NAME
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn pooled_baselines_identical_to_sequential_for_arbitrary_worlds(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        threads in 1usize..5,
        shuffle_seed in 0u64..1_000,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
            // A barren seed pair (all OD draws too short) proves nothing;
            // skip rather than fail — other cases cover the property.
            return Ok(());
        }
        let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));

        let planner = Arc::new(RoutePlanner::untrained(&net));
        let cfg = HmmConfig::default();
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let fmm = FmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let lhmm = LhmmMatcher::fit(net.clone(), planner, cfg, &samples);
        assert_pooled_identical(&hmm, &batch, threads, &order);
        assert_pooled_identical(&fmm, &batch, threads, &order);
        assert_pooled_identical(&lhmm, &batch, threads, &order);
    }

    #[test]
    fn sssp_pool_reuse_never_leaks_state(
        net_seed in 0u64..1_000,
        priors in prop::collection::vec((0u32..10_000, 0u32..10_000, 150.0f64..4_000.0), 0usize..12),
        last in (0u32..10_000, 0u32..10_000),
        bound in 150.0f64..4_000.0,
    ) {
        let net = generate_city(&NetworkConfig::with_size(6, 6, net_seed));
        let m = net.num_nodes() as u32;
        let mut pool = SsspPool::new();
        let mut sweep = Vec::new();
        // Arbitrary interleaved history: point-to-point queries and bounded
        // sweeps, each leaving whatever state they leave.
        for (i, &(s, d, b)) in priors.iter().enumerate() {
            let _ = pool.node_dist(&net, NodeId(s % m), NodeId(d % m), Weight::Length, b);
            if i % 3 == 1 {
                pool.bounded_sssp_into(&net, NodeId(s % m), Weight::Length, b, &mut sweep);
            }
        }
        let (src, dst) = (NodeId(last.0 % m), NodeId(last.1 % m));
        let warm = pool.node_dist(&net, src, dst, Weight::Length, bound);
        let fresh = SsspPool::new().node_dist(&net, src, dst, Weight::Length, bound);
        let plain = node_dist(&net, src, dst, Weight::Length, bound);
        prop_assert_eq!(warm, fresh, "warm pool diverged from fresh pool after {} priors", priors.len());
        prop_assert_eq!(warm, plain, "pooled query diverged from allocating Dijkstra");
    }
}

/// Rows and columns for the matrix seam: real candidate rows of
/// consecutive GPS points, each pair also salted with what real rows rarely
/// hold — a duplicated position, the same segment at a forward and a
/// backward ratio, ratios 0 and 1, a segment id past the network — plus a
/// pair with an empty side.
fn seam_rows(net: &RoadNetwork, traj: &Trajectory) -> Vec<(Vec<NetPos>, Vec<NetPos>)> {
    let finder = CandidateFinder::new(net, 6);
    let mut scratch = CandidateScratch::new();
    let mut row = Vec::new();
    let layers: Vec<Vec<NetPos>> = traj
        .points
        .iter()
        .map(|p| {
            finder.candidates_into(p.pos, &mut scratch, &mut row);
            row.iter().map(|c| NetPos::new(c.seg, c.ratio)).collect()
        })
        .collect();
    let bogus = SegmentId(net.num_segments() as u32 + 3);
    let mut pairs = Vec::new();
    for w in layers.windows(2) {
        let (mut rows, mut cols) = (w[0].clone(), w[1].clone());
        pairs.push((rows.clone(), cols.clone()));
        let s = rows[0].seg;
        rows.extend([rows[0], NetPos::new(s, 0.3), NetPos::new(s, 1.0), NetPos::new(bogus, 0.5)]);
        cols.extend([cols[0], NetPos::new(s, 0.7), NetPos::new(s, 0.1), NetPos::new(s, 0.0)]);
        cols.extend([NetPos::new(s, 1.0), NetPos::new(bogus, 0.2)]);
        pairs.push((rows, cols));
    }
    if let Some(first) = layers.first() {
        pairs.push((first.clone(), Vec::new()));
        pairs.push((Vec::new(), first.clone()));
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The lattice step's matrix is per-pair `route_dist` cell by cell, to
    /// the bit, on every backend: Dijkstra under four bounds, the
    /// whole-graph table and a four-tile sharded network. Rows the caller
    /// marks dead are not computed and read `None`; one pool serves every
    /// fill, so each also runs after an arbitrary history of sweeps.
    #[test]
    fn route_matrix_is_per_pair_route_dist_on_every_backend(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        cut_seed in 0u64..1_000,
        dead_every in 2usize..5,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        let delta = 900.0;
        let mut providers: Vec<TransitionProvider> = [0.0, 250.0, delta, f64::INFINITY]
            .into_iter()
            .map(TransitionProvider::dijkstra)
            .collect();
        providers.push(TransitionProvider::with_table(Arc::new(DistTable::build(&net, delta))));
        let plan = ShardPlan::new(&net, &GridCut::square(4, cut_seed));
        let sharded = ShardedNetwork::build(net.clone(), plan, delta);
        providers.push(TransitionProvider::with_sharded(Arc::new(sharded)));
        let (mut pool, mut pair_pool) = (SsspPool::new(), SsspPool::new());
        let mut matrix = RouteMatrix::new();
        for sample in &samples {
            for (rows, cols) in seam_rows(&net, &sample.sparse) {
                for provider in &providers {
                    let live = |k: usize| k % dead_every != 1;
                    provider.route_dist_matrix(&net, &mut pool, &rows, &cols, live, &mut matrix);
                    for (k, &a) in rows.iter().enumerate() {
                        for (j, &b) in cols.iter().enumerate() {
                            let want = if live(k) {
                                provider.route_dist(&net, &mut pair_pool, a, b).ok().flatten()
                            } else {
                                None
                            };
                            let got = matrix.get(k, j);
                            prop_assert_eq!(
                                got.map(f64::to_bits), want.map(f64::to_bits),
                                "bound {}: {:?} -> {:?}: {:?} vs {:?}",
                                provider.max_route_m(), a, b, got, want
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Hammer one shared `DistCache` from several scoped threads, each reading
/// through its own `SsspPool`, and check: every answer is the true
/// distance, the hit/miss counters account for every lookup, and exactly
/// the queried pairs are cached.
#[test]
fn dist_cache_concurrent_read_through_is_consistent() {
    let net = generate_city(&NetworkConfig::with_size(7, 7, 77));
    let m = net.num_nodes() as u32;
    let pairs: Vec<(NodeId, NodeId)> =
        (0..24).map(|i| (NodeId((i * 5) % m), NodeId((i * 11 + 3) % m))).collect();
    let cache = DistCache::new();
    let threads = 4;
    let passes = 6;
    let answers: Vec<Vec<Option<f64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let net = &net;
                let cache = &cache;
                let pairs = &pairs;
                scope.spawn(move || {
                    let mut pool = SsspPool::new();
                    let mut got = Vec::new();
                    // Each worker walks the pair list from a different
                    // offset so lookups interleave hit/miss differently.
                    for pass in 0..passes {
                        for i in 0..pairs.len() {
                            let (src, dst) = pairs[(i + w * 7 + pass) % pairs.len()];
                            got.push(cache.node_dist_pooled(
                                net,
                                src,
                                dst,
                                f64::INFINITY,
                                &mut pool,
                            ));
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cache hammer worker panicked")).collect()
    });

    // Every returned distance equals a fresh Dijkstra run: no entry was
    // ever served with a wrong (e.g. torn or cross-keyed) value.
    for (w, got) in answers.iter().enumerate() {
        assert_eq!(got.len(), passes * pairs.len());
        for (i, &d) in got.iter().enumerate() {
            let (src, dst) = pairs[(i % pairs.len() + w * 7 + i / pairs.len()) % pairs.len()];
            let truth = node_dist(&net, src, dst, Weight::Length, f64::INFINITY);
            assert_eq!(d, truth, "worker {w} lookup {i}: wrong distance for {src:?}->{dst:?}");
        }
    }

    // Counter consistency: every lookup is exactly one hit or one miss;
    // racing first lookups may each count a miss for the same pair, so
    // misses is bounded below by the distinct pairs and above by the total.
    let stats = cache.stats();
    let total = (threads * passes * pairs.len()) as u64;
    let distinct: std::collections::HashSet<_> = pairs.iter().collect();
    assert_eq!(stats.total(), total, "hits {} + misses {} != lookups", stats.hits, stats.misses);
    assert!(stats.misses >= distinct.len() as u64, "first lookup of each pair must miss");
    assert!(stats.misses <= total, "misses cannot exceed lookups");
    assert_eq!(cache.len(), distinct.len(), "exactly the queried pairs are cached");
}
