//! Hidden-Markov-Model map matching (Newson & Krumm, SIGSPATIAL 2009) and
//! its FMM acceleration (Yang & Gidófalvi, IJGIS 2018).
//!
//! * **Emission**: Gaussian on the perpendicular distance between the GPS
//!   point and a candidate segment, `log p ∝ −½ (d/σ_z)²`.
//! * **Transition**: exponential on the detour between consecutive points,
//!   `log p ∝ −|d_route − d_straight| / β` — vehicles rarely drive much
//!   farther than the direct displacement.
//! * **Decoding**: Viterbi over per-point candidate sets (top-k from the
//!   R-tree). When no transition is feasible (sparse data, bounded search)
//!   the chain restarts at that point, the standard HMM-break handling.
//!
//! Route distances come from a shared [`TransitionProvider`]
//! (`trmma-roadnet`), one matrix per lattice step
//! ([`TransitionProvider::route_dist_matrix`]): [`HmmMatcher`] fills it
//! with one dense Dijkstra sweep per distinct exit node of the previous
//! layer, on the caller's pooled state; [`FmmMatcher`] differs only in
//! attaching a precomputed UBODT ([`DistTable`]), which turns every node
//! pair into a binary search over sorted records. All mutable search state
//! lives in [`HmmScratch`] — one per batch worker — so the matchers are
//! `Send + Sync` and parallelise through `trmma_core::batch` with output
//! identical to the sequential path.

use std::sync::Arc;

use trmma_roadnet::shortest::{NetPos, SsspPool};
use trmma_roadnet::{
    DistTable, RoadNetwork, RouteMatrix, RoutePlanner, ShardedNetwork, TransitionProvider,
};
use trmma_traj::api::{
    stitch_route, Candidate, CandidateFinder, CandidateScratch, MapMatcher, MatchResult,
};
use trmma_traj::online::{OnlineMatcher, OnlineUpdate};
use trmma_traj::snapshot::{Reader, SnapshotError};
use trmma_traj::types::{GpsPoint, MatchedPoint, Trajectory};
use trmma_traj::ScratchMatcher;

use crate::decoder::{LatticeArena, ViterbiState};

/// Tunables of the HMM matchers.
#[derive(Debug, Clone)]
pub struct HmmConfig {
    /// Candidates per GPS point.
    pub k_candidates: usize,
    /// Emission standard deviation σ_z in metres.
    pub sigma_z_m: f64,
    /// Transition scale β in metres.
    pub beta_m: f64,
    /// Hard bound on route-distance searches in metres (also the UBODT
    /// delta for [`FmmMatcher`]).
    pub max_route_m: f64,
}

impl Default for HmmConfig {
    fn default() -> Self {
        Self { k_candidates: 10, sigma_z_m: 10.0, beta_m: 120.0, max_route_m: 5_000.0 }
    }
}

/// Per-worker mutable state of the HMM matchers: the dense Dijkstra sweep
/// state and the route-matrix buffers of the lattice step, the
/// candidate-search heaps, the lattice-row arena and the emission-kernel
/// staging buffers. One scratch serves every trajectory a batch worker
/// claims; past the first trajectory the per-point advance path allocates
/// nothing.
#[derive(Debug, Default)]
pub struct HmmScratch {
    pool: SsspPool,
    /// The previous and the current layer as network positions.
    rows: Vec<NetPos>,
    cols: Vec<NetPos>,
    routes: RouteMatrix,
    cand: CandidateScratch,
    arena: LatticeArena,
    /// Gathered `dist_m` column, input of the vectorized emission kernel.
    dists: Vec<f64>,
    /// The kernel's output row, borrowed by the lattice update.
    em: Vec<f64>,
    /// Points whose staging rows (`dists`/`em`) fit in retained capacity —
    /// two allocations avoided each versus the fresh-per-call path.
    staged: u64,
}

impl HmmScratch {
    /// Empty scratch state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap allocations this scratch has absorbed so far: lattice-arena
    /// rows served from recycled storage, plus staging rows reused from
    /// retained capacity (two per staged point).
    #[must_use]
    pub fn allocs_avoided(&self) -> u64 {
        self.arena.allocs_avoided() + 2 * self.staged
    }
}

/// Newson–Krumm HMM matcher (pooled, cached Dijkstra route distances).
pub struct HmmMatcher {
    net: Arc<RoadNetwork>,
    planner: Arc<RoutePlanner>,
    finder: CandidateFinder,
    cfg: HmmConfig,
    provider: TransitionProvider,
    name: &'static str,
}

impl HmmMatcher {
    /// Builds the matcher with on-demand (cached, pooled) Dijkstra route
    /// distances.
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, planner: Arc<RoutePlanner>, cfg: HmmConfig) -> Self {
        let provider = TransitionProvider::dijkstra(cfg.max_route_m);
        Self::with_provider(net, planner, cfg, provider, "HMM")
    }

    /// Like [`HmmMatcher::new`] with a custom display name (used by the
    /// learned-HMM wrapper).
    #[must_use]
    pub(crate) fn with_name(
        net: Arc<RoadNetwork>,
        planner: Arc<RoutePlanner>,
        cfg: HmmConfig,
        name: &'static str,
    ) -> Self {
        let provider = TransitionProvider::dijkstra(cfg.max_route_m);
        Self::with_provider(net, planner, cfg, provider, name)
    }

    fn with_provider(
        net: Arc<RoadNetwork>,
        planner: Arc<RoutePlanner>,
        cfg: HmmConfig,
        provider: TransitionProvider,
        name: &'static str,
    ) -> Self {
        let finder = CandidateFinder::new(&net, cfg.k_candidates);
        Self { net, planner, finder, cfg, provider, name }
    }

    /// Builds the matcher on a sharded network: candidate search merges the
    /// per-shard R-trees and route distances decompose into intra-shard
    /// table hops plus the boundary overlay — no Dijkstra at decode time.
    /// `sharded.delta()` takes the place of `cfg.max_route_m` as the route
    /// bound; decodes are bitwise-identical to the monolithic matcher when
    /// the two bounds agree (`tests/props_shard.rs`).
    #[must_use]
    pub fn sharded(
        sharded: Arc<ShardedNetwork>,
        planner: Arc<RoutePlanner>,
        cfg: HmmConfig,
    ) -> Self {
        Self::sharded_named(sharded, planner, cfg, "HMM")
    }

    /// [`HmmMatcher::sharded`] with a custom display name (used by the
    /// learned-HMM wrapper and FMM).
    pub(crate) fn sharded_named(
        sharded: Arc<ShardedNetwork>,
        planner: Arc<RoutePlanner>,
        cfg: HmmConfig,
        name: &'static str,
    ) -> Self {
        let net = Arc::clone(sharded.net());
        let finder = CandidateFinder::sharded(Arc::clone(&sharded), cfg.k_candidates);
        let provider = TransitionProvider::with_sharded(sharded);
        Self { net, planner, finder, cfg, provider, name }
    }

    /// The route-distance oracle (shared, read-only).
    #[must_use]
    pub fn provider(&self) -> &TransitionProvider {
        &self.provider
    }

    /// Log transition probability of a candidate pair from its route
    /// distance and the straight-line displacement between the two GPS
    /// points. Unreachable pairs and malformed segment ids (`None` from the
    /// provider, never a panic) both score as impossible transitions.
    fn transition_score(&self, route: Option<f64>, straight_m: f64) -> f64 {
        route.map_or(f64::NEG_INFINITY, |route| -(route - straight_m).abs() / self.cfg.beta_m)
    }

    /// Advances a resumable decoder by one GPS point: candidate search on
    /// the scratch's kNN buffers, emissions through the chunked Gaussian
    /// kernel, then [`ViterbiState::advance_matrix_in`] fed the step's
    /// route-distance matrix ([`TransitionProvider::route_dist_matrix`],
    /// live rows only, on the scratch's pool), with lattice rows from the
    /// scratch's arena. The one step function shared by the offline decode
    /// (which replays a whole trajectory through it) and the online path.
    /// Every piece is bitwise-identical to the naive pair-by-pair,
    /// closure-per-candidate, fresh-`Vec`-per-row formulation
    /// (`tests/props_baselines.rs`, `tests/props_tail.rs`).
    fn advance(&self, scratch: &mut HmmScratch, state: &mut ViterbiState, p: GpsPoint) {
        let HmmScratch { pool, rows, cols, routes, cand, arena, dists, em, staged } = scratch;
        let mut cands = arena.take_cand_row();
        self.finder.candidates_into(p.pos, cand, &mut cands);
        if dists.capacity() >= cands.len() && em.capacity() >= cands.len() {
            *staged += 1;
        }
        dists.clear();
        dists.extend(cands.iter().map(|c| c.dist_m));
        trmma_nn::kernels::gaussian_log_emission_into(dists, self.cfg.sigma_z_m, em);
        state.advance_matrix_in(arena, p, cands, em, |prev, prev_score, cands, straight, tr| {
            let pos = |c: &Candidate| NetPos::new(c.seg, c.ratio);
            rows.clear();
            rows.extend(prev.iter().map(pos));
            cols.clear();
            cols.extend(cands.iter().map(pos));
            let live = |k: usize| prev_score[k] != f64::NEG_INFINITY;
            self.provider.route_dist_matrix(&self.net, pool, rows, cols, live, routes);
            let m = cands.len();
            for k in (0..prev.len()).filter(|&k| live(k)) {
                for j in 0..m {
                    tr[k * m + j] = self.transition_score(routes.get(k, j), straight);
                }
            }
        });
    }

    fn stitch(&self, matched: Vec<MatchedPoint>) -> MatchResult {
        stitch_route(&self.net, &self.planner, matched)
    }
}

/// Per-session decoder state of the HMM-family matchers: the resumable
/// Viterbi lattice. One per live trajectory; the heavyweight search buffers
/// stay in the per-worker [`HmmScratch`].
#[derive(Debug, Clone, Default)]
pub struct HmmSession {
    state: ViterbiState,
}

impl HmmSession {
    /// Points pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether any point has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// The current stabilized-prefix watermark of the lattice.
    #[must_use]
    pub fn watermark(&self) -> usize {
        self.state.watermark()
    }
}

impl MapMatcher for HmmMatcher {
    fn name(&self) -> &'static str {
        self.name
    }

    fn match_trajectory(&self, traj: &Trajectory) -> MatchResult {
        self.match_trajectory_with(&mut HmmScratch::new(), traj)
    }
}

impl ScratchMatcher for HmmMatcher {
    type Scratch = HmmScratch;

    fn make_scratch(&self) -> HmmScratch {
        HmmScratch::new()
    }

    fn scratch_stats(scratch: &HmmScratch) -> trmma_traj::ScratchStats {
        trmma_traj::ScratchStats { allocs_avoided: scratch.allocs_avoided() }
    }

    fn match_trajectory_with(&self, scratch: &mut HmmScratch, traj: &Trajectory) -> MatchResult {
        // Offline is online replayed: push every point, then decode.
        let mut state = ViterbiState::new();
        for &p in &traj.points {
            self.advance(scratch, &mut state, p);
        }
        let matched = state.decode();
        scratch.arena.recycle(state);
        self.stitch(matched)
    }
}

impl OnlineMatcher for HmmMatcher {
    type Session = HmmSession;

    fn begin_session(&self) -> HmmSession {
        HmmSession::default()
    }

    fn push_point(
        &self,
        scratch: &mut HmmScratch,
        session: &mut HmmSession,
        point: GpsPoint,
    ) -> OnlineUpdate {
        self.advance(scratch, &mut session.state, point);
        OnlineUpdate {
            provisional: session.state.provisional(),
            stable_prefix: session.state.refresh_watermark(),
        }
    }

    fn finalize(&self, scratch: &mut HmmScratch, session: HmmSession) -> MatchResult {
        let matched = session.state.decode();
        scratch.arena.recycle(session.state);
        self.stitch(matched)
    }

    fn session_len(&self, session: &HmmSession) -> usize {
        session.state.len()
    }

    fn session_watermark(&self, session: &HmmSession) -> usize {
        session.state.watermark()
    }

    fn session_stable(&self, session: &HmmSession) -> bool {
        session.state.is_stable()
    }

    fn snapshot_session(&self, session: &HmmSession, out: &mut Vec<u8>) {
        session.state.encode_snapshot(out);
    }

    fn restore_session(&self, bytes: &[u8]) -> Result<HmmSession, SnapshotError> {
        let mut r = Reader::new(bytes);
        let state = ViterbiState::decode_snapshot(&mut r, self.net.num_segments())?;
        r.expect_end()?;
        Ok(HmmSession { state })
    }
}

/// FMM: the HMM above with a precomputed UBODT route-distance table
/// ([`DistTable`]) attached to its [`TransitionProvider`].
pub struct FmmMatcher {
    inner: HmmMatcher,
    /// Wall-clock seconds spent building the UBODT (reported by the
    /// efficiency experiments).
    pub precompute_s: f64,
}

impl FmmMatcher {
    /// Builds the matcher, precomputing the UBODT with `delta =
    /// cfg.max_route_m`.
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, planner: Arc<RoutePlanner>, cfg: HmmConfig) -> Self {
        let start = std::time::Instant::now();
        let table = Arc::new(DistTable::build(&net, cfg.max_route_m));
        let precompute_s = start.elapsed().as_secs_f64();
        let provider = TransitionProvider::with_table(table);
        Self { inner: HmmMatcher::with_provider(net, planner, cfg, provider, "FMM"), precompute_s }
    }

    /// Builds the matcher around an existing precomputed table — e.g. one
    /// adopted zero-copy from a `trmma-artifacts` image — skipping the
    /// Dijkstra sweeps entirely (`precompute_s` is 0: nothing was built).
    /// The table's delta overrides `cfg.max_route_m` as the search bound,
    /// exactly as [`FmmMatcher::new`] ties the two together.
    #[must_use]
    pub fn with_table(
        net: Arc<RoadNetwork>,
        planner: Arc<RoutePlanner>,
        cfg: HmmConfig,
        table: Arc<DistTable>,
    ) -> Self {
        let provider = TransitionProvider::with_table(table);
        Self {
            inner: HmmMatcher::with_provider(net, planner, cfg, provider, "FMM"),
            precompute_s: 0.0,
        }
    }

    /// Builds the matcher on a sharded network: the per-shard intra tables
    /// plus the boundary overlay *are* the precomputed route-distance
    /// store, standing in for the whole-graph UBODT (`precompute_s` is 0 —
    /// the shard build already paid for the sweeps).
    #[must_use]
    pub fn sharded(
        sharded: Arc<ShardedNetwork>,
        planner: Arc<RoutePlanner>,
        cfg: HmmConfig,
    ) -> Self {
        Self { inner: HmmMatcher::sharded_named(sharded, planner, cfg, "FMM"), precompute_s: 0.0 }
    }

    /// Size of the precomputed distance store: the UBODT's pair count, or
    /// for a sharded matcher the total pairs across every intra-shard table
    /// plus the overlay.
    #[must_use]
    pub fn table_len(&self) -> usize {
        if let Some(t) = self.inner.provider.table() {
            return t.len();
        }
        self.inner.provider.sharded().map_or(0, |sh| {
            sh.overlay().len() + sh.shards().iter().map(|s| s.intra().len()).sum::<usize>()
        })
    }

    /// The route-distance oracle (shared, read-only, table-backed).
    #[must_use]
    pub fn provider(&self) -> &TransitionProvider {
        self.inner.provider()
    }
}

impl MapMatcher for FmmMatcher {
    fn name(&self) -> &'static str {
        self.inner.name
    }

    fn match_trajectory(&self, traj: &Trajectory) -> MatchResult {
        self.inner.match_trajectory(traj)
    }
}

impl ScratchMatcher for FmmMatcher {
    type Scratch = HmmScratch;

    fn make_scratch(&self) -> HmmScratch {
        HmmScratch::new()
    }

    fn scratch_stats(scratch: &HmmScratch) -> trmma_traj::ScratchStats {
        trmma_traj::ScratchStats { allocs_avoided: scratch.allocs_avoided() }
    }

    fn match_trajectory_with(&self, scratch: &mut HmmScratch, traj: &Trajectory) -> MatchResult {
        self.inner.match_trajectory_with(scratch, traj)
    }
}

impl OnlineMatcher for FmmMatcher {
    type Session = HmmSession;

    fn begin_session(&self) -> HmmSession {
        self.inner.begin_session()
    }

    fn push_point(
        &self,
        scratch: &mut HmmScratch,
        session: &mut HmmSession,
        point: GpsPoint,
    ) -> OnlineUpdate {
        self.inner.push_point(scratch, session, point)
    }

    fn finalize(&self, scratch: &mut HmmScratch, session: HmmSession) -> MatchResult {
        self.inner.finalize(scratch, session)
    }

    fn session_len(&self, session: &HmmSession) -> usize {
        self.inner.session_len(session)
    }

    fn session_watermark(&self, session: &HmmSession) -> usize {
        self.inner.session_watermark(session)
    }

    fn session_stable(&self, session: &HmmSession) -> bool {
        self.inner.session_stable(session)
    }

    fn snapshot_session(&self, session: &HmmSession, out: &mut Vec<u8>) {
        self.inner.snapshot_session(session, out);
    }

    fn restore_session(&self, bytes: &[u8]) -> Result<HmmSession, SnapshotError> {
        self.inner.restore_session(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trmma_roadnet::{generate_city, NetworkConfig};
    use trmma_traj::gen::{generate_trajectory, sparsify, TrajConfig};
    use trmma_traj::metrics::matching_metrics;
    use trmma_traj::Sample;

    fn setup() -> (Arc<RoadNetwork>, Arc<RoutePlanner>, Vec<Sample>) {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(8, 8, 51)));
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let cfg = TrajConfig { min_points: 12, ..TrajConfig::default() };
        let mut rng = StdRng::seed_from_u64(9);
        let mut samples: Vec<Sample> = Vec::new();
        for _ in 0..6 {
            if let Some(raw) = generate_trajectory(&net, &cfg, &mut rng) {
                samples.push(sparsify(&raw, 0.3, &mut rng));
            }
        }
        assert!(!samples.is_empty());
        (net, planner, samples)
    }

    #[test]
    fn hmm_beats_random_and_routes_are_paths() {
        let (net, planner, samples) = setup();
        let hmm = HmmMatcher::new(net.clone(), planner, HmmConfig::default());
        let mut f1_sum = 0.0;
        for s in &samples {
            let res = hmm.match_trajectory(&s.sparse);
            assert_eq!(res.matched.len(), s.sparse.len());
            assert!(res.route.is_valid(&net));
            f1_sum += matching_metrics(&res.route, &s.route).f1;
        }
        let mean_f1 = f1_sum / samples.len() as f64;
        assert!(mean_f1 > 0.5, "HMM mean F1 too low: {mean_f1}");
    }

    #[test]
    fn hmm_transition_prefers_direct_continuation() {
        let (net, planner, _) = setup();
        let hmm = HmmMatcher::new(net.clone(), planner, HmmConfig::default());
        let mut pool = SsspPool::new();
        let mut routes = RouteMatrix::new();
        // Candidate on a segment, straight-line equal to route distance →
        // detour 0 → transition log 0. A contrived far candidate scores less.
        let e = trmma_roadnet::SegmentId(0);
        let near = NetPos::new(e, 0.2);
        let next = NetPos::new(e, 0.8);
        hmm.provider.route_dist_matrix(&net, &mut pool, &[near], &[next], |_| true, &mut routes);
        let seg_len = net.segment(e).length;
        let straight = (0.6 * seg_len).abs();
        let t_direct = hmm.transition_score(routes.get(0, 0), straight);
        assert!(t_direct > -1e-6, "zero detour should give ~0 log prob");
        let t_detour = hmm.transition_score(routes.get(0, 0), straight + 500.0);
        assert!(t_detour < t_direct);
        assert_eq!(hmm.transition_score(None, straight), f64::NEG_INFINITY);
    }

    #[test]
    fn fmm_agrees_with_hmm_within_delta() {
        let (net, planner, samples) = setup();
        let cfg = HmmConfig::default();
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let fmm = FmmMatcher::new(net.clone(), planner, cfg.clone());
        // FMM queries the one table construction, at its search bound.
        assert!(fmm.table_len() > 0);
        assert_eq!(fmm.table_len(), DistTable::build(&net, cfg.max_route_m).len());
        assert_eq!(fmm.provider().table().map(|t| t.delta()), Some(cfg.max_route_m));
        for s in &samples {
            let a = hmm.match_trajectory(&s.sparse);
            let b = fmm.match_trajectory(&s.sparse);
            // Same oracle values within delta ⇒ same Viterbi choice.
            let same = a.matched.iter().zip(&b.matched).filter(|(x, y)| x.seg == y.seg).count();
            assert!(
                same * 10 >= a.matched.len() * 9,
                "FMM diverged from HMM: {same}/{}",
                a.matched.len()
            );
        }
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh_scratch() {
        let (net, planner, samples) = setup();
        let hmm = HmmMatcher::new(net, planner, HmmConfig::default());
        let mut warm = HmmScratch::new();
        for s in &samples {
            let pooled = hmm.match_trajectory_with(&mut warm, &s.sparse);
            let fresh = hmm.match_trajectory(&s.sparse);
            assert_eq!(pooled, fresh);
        }
    }

    #[test]
    fn empty_trajectory_yields_empty_result() {
        let (net, planner, _) = setup();
        let hmm = HmmMatcher::new(net, planner, HmmConfig::default());
        let res = hmm.match_trajectory(&Trajectory::default());
        assert!(res.matched.is_empty());
        assert!(res.route.is_empty());
    }
}
