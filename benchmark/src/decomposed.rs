//! The pipelines rebuilt from public pieces, one span around each call
//! into a layer. Each rebuild must return output bitwise-equal to the real
//! entry point it stands in for; the traced run asserts it and the
//! self-tests pin it down on the tiny dataset.

use std::time::Instant;

use trmma_baselines::decoder::LatticeArena;
use trmma_baselines::{HmmConfig, ViterbiState};
use trmma_core::{Mma, MmaScratch, Trmma};
use trmma_nn::kernels::gaussian_log_emission_into;
use trmma_nn::Graph;
use trmma_roadnet::shortest::{NetPos, SsspPool};
use trmma_roadnet::{RoadNetwork, RoutePlanner, TransitionProvider};
use trmma_traj::api::{stitch_route, Candidate, CandidateFinder, CandidateScratch};
use trmma_traj::{MatchResult, MatchedTrajectory, Trajectory};

use crate::trace::Tracer;

/// Most oracle node pairs a traced pass records for the replay probes.
const MAX_RECORDED_PAIRS: usize = 100_000;

/// What an HMM-family matcher is made of, held from outside it: the same
/// network, planner, configuration and oracle, and a candidate finder built
/// the way the matcher builds its own.
#[derive(Clone, Copy)]
pub struct HmmParts<'a> {
    pub net: &'a RoadNetwork,
    pub planner: &'a RoutePlanner,
    pub finder: &'a CandidateFinder,
    /// `matcher.provider()`: the real matcher's own oracle.
    pub provider: &'a TransitionProvider,
    pub cfg: &'a HmmConfig,
}

/// Per-worker state of the decomposed HMM step (what `HmmScratch` holds).
#[derive(Default)]
pub struct HmmState {
    pool: SsspPool,
    cand: CandidateScratch,
    arena: LatticeArena,
    dists: Vec<f64>,
    em: Vec<f64>,
    /// `(from node, to node)` of every oracle query that reached the
    /// mid-route stage, for the table/Dijkstra/shard replay probes.
    pub pairs: Vec<(u32, u32)>,
}

/// One trajectory through the HMM-family pipeline, step by step:
/// `candidates_into` → `gaussian_log_emission_into` → `advance_scored_in`
/// (its closure timing `route_dist`) → `decode` → `stitch_route`.
pub fn hmm_match(
    parts: &HmmParts<'_>,
    st: &mut HmmState,
    tr: &mut Tracer,
    traj: &Trajectory,
) -> MatchResult {
    let HmmParts { net, planner, finder, provider, cfg } = *parts;
    let HmmState { pool, cand, arena, dists, em, pairs } = st;
    let root = tr.open("core.batch.op");
    let mut state = ViterbiState::new();
    for &p in &traj.points {
        let s = tr.open("rtree.knn");
        let mut cands = arena.take_cand_row();
        finder.candidates_into(p.pos, cand, &mut cands);
        tr.close(s);

        let s = tr.open("nn.kernels.emission");
        dists.clear();
        dists.extend(cands.iter().map(|c| c.dist_m));
        gaussian_log_emission_into(dists, cfg.sigma_z_m, em);
        tr.close(s);

        let s = tr.open("baselines.decoder.advance");
        let start_ns = tr.now_ns();
        let (mut busy_ns, mut calls) = (0u64, 0u64);
        state.advance_scored_in(
            arena,
            p,
            cands,
            em,
            |from: &Candidate, to: &Candidate, straight| {
                let a = NetPos::new(from.seg, from.ratio);
                let b = NetPos::new(to.seg, to.ratio);
                let t0 = Instant::now();
                let got = provider.route_dist(net, pool, a, b);
                busy_ns += u64::try_from(t0.elapsed().as_nanos()).expect("fits u64");
                calls += 1;
                if pairs.len() < MAX_RECORDED_PAIRS && !(a.seg == b.seg && b.ratio >= a.ratio) {
                    pairs.push((net.segment(a.seg).to.0, net.segment(b.seg).from.0));
                }
                match got {
                    Ok(Some(route)) => -(route - straight).abs() / cfg.beta_m,
                    Ok(None) | Err(_) => f64::NEG_INFINITY,
                }
            },
        );
        tr.aggregate("roadnet.transition.route_dist", start_ns, busy_ns, calls);
        tr.close(s);
    }
    let s = tr.open("baselines.decoder.decode");
    let matched = state.decode();
    arena.recycle(state);
    tr.close(s);

    let s = tr.open("roadnet.planner.stitch");
    let result = stitch_route(net, planner, matched);
    tr.close(s);
    tr.close(root);
    result
}

/// Per-worker state of the decomposed MMA / recovery pipelines.
#[derive(Default)]
pub struct MmaState {
    scratch: MmaScratch,
    graph: Graph,
    cand: CandidateScratch,
    row: Vec<Candidate>,
}

impl MmaState {
    pub fn allocs_avoided(&self) -> u64 {
        self.scratch.allocs_avoided()
    }
}

/// MMA's `match_trajectory_with` as `match_points_with` → `stitch_route`.
/// The kNN inside `match_points_with` cannot be reached from outside, so it
/// is replayed through `Mma::finder()` on the same points first and booked
/// as a child of the forward span: the forward's self time is then the `nn`
/// work alone. The replay itself is tracing overhead and says so.
fn mma_match_inner(
    mma: &Mma,
    net: &RoadNetwork,
    planner: &RoutePlanner,
    st: &mut MmaState,
    tr: &mut Tracer,
    traj: &Trajectory,
) -> MatchResult {
    let s = tr.open("trace.replay.knn");
    let t0 = Instant::now();
    for p in &traj.points {
        mma.finder().candidates_into(p.pos, &mut st.cand, &mut st.row);
    }
    let knn_ns = u64::try_from(t0.elapsed().as_nanos()).expect("fits u64");
    tr.close(s);

    let s = tr.open("core.mma.match_points");
    let start_ns = tr.now_ns();
    let matched = mma.match_points_with(&mut st.scratch, traj);
    tr.aggregate("rtree.knn", start_ns, knn_ns, traj.len() as u64);
    tr.close(s);

    let s = tr.open("roadnet.planner.stitch");
    let result = stitch_route(net, planner, matched);
    tr.close(s);
    result
}

/// One trajectory through the decomposed MMA matcher.
pub fn mma_match(
    mma: &Mma,
    net: &RoadNetwork,
    planner: &RoutePlanner,
    st: &mut MmaState,
    tr: &mut Tracer,
    traj: &Trajectory,
) -> MatchResult {
    let root = tr.open("core.batch.op");
    let result = mma_match_inner(mma, net, planner, st, tr, traj);
    tr.close(root);
    result
}

/// One trajectory through the decomposed recovery pipeline: the MMA match
/// above, then `Trmma::recover_from_match_with`.
#[allow(clippy::too_many_arguments)]
pub fn recover(
    mma: &Mma,
    trmma: &Trmma,
    net: &RoadNetwork,
    planner: &RoutePlanner,
    st: &mut MmaState,
    tr: &mut Tracer,
    traj: &Trajectory,
    epsilon_s: f64,
) -> MatchedTrajectory {
    let root = tr.open("core.batch.op");
    let m = mma_match_inner(mma, net, planner, st, tr, traj);
    let s = tr.open("core.trmma.recover");
    let rec = trmma.recover_from_match_with(&mut st.graph, traj, &m.matched, &m.route, epsilon_s);
    tr.close(s);
    tr.close(root);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trmma_baselines::{FmmMatcher, HmmMatcher};
    use trmma_core::{MmaConfig, TrmmaConfig};
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
    use trmma_traj::MapMatcher;

    fn tiny() -> (Arc<RoadNetwork>, Arc<RoutePlanner>, Vec<Trajectory>) {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let trips =
            ds.samples(Split::Test, 0.2, 5).into_iter().map(|s| s.sparse).collect::<Vec<_>>();
        assert!(trips.len() >= 5);
        (net, planner, trips)
    }

    #[test]
    fn decomposed_hmm_and_fmm_equal_match_trajectory_bitwise() {
        let (net, planner, trips) = tiny();
        let cfg = HmmConfig { max_route_m: 900.0, ..HmmConfig::default() };
        let finder = CandidateFinder::new(&net, cfg.k_candidates);
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let fmm = FmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        for provider in [hmm.provider(), fmm.provider()] {
            let parts =
                HmmParts { net: &net, planner: &planner, finder: &finder, provider, cfg: &cfg };
            let mut st = HmmState::default();
            let mut tr = Tracer::new(Instant::now());
            for (i, t) in trips.iter().enumerate() {
                tr.set_op(i as u32 + 1);
                // One state serves every trajectory, like a batch worker's scratch.
                let got = hmm_match(&parts, &mut st, &mut tr, t);
                let real: &dyn MapMatcher = if provider.table().is_some() { &fmm } else { &hmm };
                assert_eq!(got, real.match_trajectory(t), "trajectory {i}");
            }
            assert!(!st.pairs.is_empty(), "the oracle was consulted");
            let spans = tr.finish(0);
            assert!(spans.iter().any(|s| s.name == "roadnet.transition.route_dist"));
            // Every point has one kNN, one emission and one advance span.
            let points: usize = trips.iter().map(Trajectory::len).sum();
            for name in ["rtree.knn", "nn.kernels.emission", "baselines.decoder.advance"] {
                assert_eq!(spans.iter().filter(|s| s.name == name).count(), points, "{name}");
            }
        }
    }

    #[test]
    fn decomposed_mma_and_recovery_equal_the_real_entry_points() {
        let (net, planner, trips) = tiny();
        let mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
        let trmma = Trmma::new(net.clone(), TrmmaConfig::small());
        let mut st = MmaState::default();
        let mut tr = Tracer::off();
        for t in &trips {
            let real = mma.match_trajectory(t);
            assert_eq!(mma_match(&mma, &net, &planner, &mut st, &mut tr, t), real);
            let want = trmma.recover_from_match(t, &real.matched, &real.route, 15.0);
            assert_eq!(recover(&mma, &trmma, &net, &planner, &mut st, &mut tr, t, 15.0), want);
        }
    }
}
