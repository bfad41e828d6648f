//! Property tests for the streaming inference path:
//!
//! * **Replay equivalence** — for *every* `OnlineMatcher` in the repository
//!   (Nearest, HMM, FMM, LHMM, MMA), opening a session, pushing a
//!   trajectory's points one at a time and finalizing yields output
//!   bitwise-identical to the offline `match_trajectory`, over arbitrary
//!   generated road networks and trajectories;
//! * **Watermark soundness** — the stabilized-prefix watermark is monotone,
//!   never exceeds the pushed count, agrees with the
//!   `session_len`/`session_watermark` introspection API, and the decode
//!   prefix it pins never changes as more points arrive (checked against a
//!   decode of every longer prefix, including the final one);
//! * **Engine equivalence** — replaying many sessions through
//!   `StreamEngine` under arbitrary cross-session interleavings, chunk
//!   sizes and thread counts finalizes every session to
//!   exactly the offline decode, with per-update provisional matches and
//!   watermarks consistent with the direct session API;
//! * **Migration safety** — forcing sessions to migrate between workers at
//!   arbitrary points in the stream changes nothing: the finalized output
//!   of every `OnlineMatcher` stays bitwise-identical to the offline
//!   decode, sessions are never split or duplicated, and the router's
//!   migration counters balance.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher, NearestMatcher};
use trmma::core::{
    FinalizeReason, Mma, MmaConfig, SessionId, StreamEngine, StreamEvent, StreamOptions,
};
use trmma::roadnet::{generate_city, NetworkConfig, RoadNetwork, RoutePlanner};
use trmma::traj::gen::{generate_trajectory, sparsify, TrajConfig};
use trmma::traj::types::Trajectory;
use trmma::traj::{OnlineMatcher, Sample};

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

/// Asserts the replay-equivalence contract: session push-all + finalize
/// equals the offline decode, and every update's watermark is sound.
fn assert_replay_identical<M: OnlineMatcher>(matcher: &M, traj: &Trajectory)
where
    M::Session: Clone,
{
    let offline = matcher.match_trajectory(traj);
    let mut scratch = matcher.make_scratch();
    let mut session = matcher.begin_session();
    let mut prev_watermark = 0usize;
    // Decodes of every prefix, to check watermark pins against.
    let mut prefix_decodes = Vec::with_capacity(traj.len());
    let mut watermarks = Vec::with_capacity(traj.len());
    for (i, &p) in traj.points.iter().enumerate() {
        let update = matcher.push_point(&mut scratch, &mut session, p);
        let provisional = update.provisional.expect("non-empty network yields a candidate");
        assert_eq!(
            provisional.t,
            p.t,
            "{}: provisional must match the pushed point",
            matcher.name()
        );
        assert!(
            update.stable_prefix >= prev_watermark,
            "{}: watermark regressed at point {i}",
            matcher.name()
        );
        assert!(
            update.stable_prefix <= i + 1,
            "{}: watermark beyond pushed count at point {i}",
            matcher.name()
        );
        // The introspection API (what the engine's migration policy reads)
        // must agree with what push_point just reported.
        assert_eq!(matcher.session_len(&session), i + 1, "{}: session_len", matcher.name());
        assert_eq!(
            matcher.session_watermark(&session),
            update.stable_prefix,
            "{}: session_watermark",
            matcher.name()
        );
        assert_eq!(
            matcher.session_stable(&session),
            update.stable_prefix == i + 1,
            "{}: session_stable",
            matcher.name()
        );
        prev_watermark = update.stable_prefix;
        watermarks.push(update.stable_prefix);
        prefix_decodes.push(matcher.finalize(&mut scratch, session.clone()).matched);
    }
    let online = matcher.finalize(&mut scratch, session);
    assert_eq!(online, offline, "{}: online finalize != offline decode", matcher.name());
    // Watermark soundness: the prefix pinned at time i is byte-identical in
    // every longer decode, including the final one.
    for (i, &w) in watermarks.iter().enumerate() {
        for later in prefix_decodes.iter().skip(i) {
            assert_eq!(
                &prefix_decodes[i][..w],
                &later[..w],
                "{}: stabilized prefix changed after point {i}",
                matcher.name()
            );
        }
        assert_eq!(
            &prefix_decodes[i][..w],
            &offline.matched[..w],
            "{}: final decode contradicts watermark at point {i}",
            matcher.name()
        );
    }
}

/// Replays sessions through a `StreamEngine` under an arbitrary
/// interleaving (random session choice, random chunk length) and asserts
/// every finalized result equals the offline decode. With
/// `force_migrations`, a random force-migrate is issued after every chunk,
/// so session state crosses workers at arbitrary stream positions.
fn assert_engine_identical<M: OnlineMatcher + 'static>(
    matcher: &Arc<M>,
    batch: &[Trajectory],
    threads: usize,
    interleave_seed: u64,
    max_chunk: usize,
    force_migrations: bool,
) {
    // Automatic rebalancing off: it issues stable-only detaches that a
    // lagging decoder may legitimately refuse, which would trip the
    // forced-migration counter asserts below. Forced `migrate()` calls
    // are unaffected by the threshold.
    let engine = StreamEngine::new(
        matcher.clone(),
        StreamOptions::with_threads(threads).idle_timeout_s(0.0).rebalance_threshold(0),
    );
    let mut rng = StdRng::seed_from_u64(interleave_seed);
    let mut cursors = vec![0usize; batch.len()];
    let mut open: Vec<usize> = (0..batch.len()).filter(|&i| !batch[i].is_empty()).collect();
    let non_empty = open.len();
    while !open.is_empty() {
        let pick = rng.gen_range(0..open.len());
        let sid = open[pick];
        let chunk = 1 + rng.gen_range(0..max_chunk);
        for _ in 0..chunk {
            if cursors[sid] == batch[sid].len() {
                break;
            }
            assert!(engine.push(sid as SessionId, batch[sid].points[cursors[sid]]));
            cursors[sid] += 1;
        }
        if force_migrations {
            engine.migrate(sid as SessionId, rng.gen_range(0..threads));
        }
        if cursors[sid] == batch[sid].len() {
            open.swap_remove(pick);
        }
    }
    for sid in 0..batch.len() {
        engine.finish(sid as SessionId);
    }
    // Let in-flight migrations resolve so the counters can be checked
    // (polling router_stats also drives the resolution).
    let deadline = Instant::now() + Duration::from_secs(10);
    let rs = loop {
        let rs = engine.router_stats();
        if rs.migrations_requested
            == rs.migrations_completed + rs.migrations_refused + rs.migrations_missed
            || Instant::now() >= deadline
        {
            break rs;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(
        rs.migrations_requested,
        rs.migrations_completed + rs.migrations_refused + rs.migrations_missed,
        "{}: migrations never settled",
        matcher.name()
    );
    assert_eq!(rs.migrations_missed, 0, "forced migrations target live sessions only");
    assert_eq!(rs.migrations_refused, 0, "forced migrations must not consult stability");
    let placed: u64 = rs.workers.iter().map(|w| w.sessions_placed).sum();
    assert_eq!(placed, non_empty as u64, "{}: placement per session", matcher.name());
    let migrated_out: u64 = rs.workers.iter().map(|w| w.migrated_out).sum();
    assert_eq!(migrated_out, rs.migrations_completed, "{}: detach counter", matcher.name());
    let (events, stats) = engine.shutdown();
    let finals: HashMap<SessionId, _> = events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::Finalized { session, reason, result, .. } => {
                assert_eq!(*reason, FinalizeReason::Explicit);
                Some((*session, result.clone()))
            }
            StreamEvent::Update { .. } => None,
        })
        .collect();
    let total: u64 = batch.iter().map(|t| t.len() as u64).sum();
    assert_eq!(stats.points, total, "every streamed point must be decoded");
    assert_eq!(stats.late_dropped, 0);
    assert_eq!(
        stats.sessions_opened,
        non_empty as u64,
        "{}: a migration must never split a session",
        matcher.name()
    );
    for (sid, t) in batch.iter().enumerate() {
        if t.is_empty() {
            continue;
        }
        assert_eq!(
            finals.get(&(sid as SessionId)),
            Some(&matcher.match_trajectory(t)),
            "{} session {sid} diverged at {threads} threads",
            matcher.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn online_finalize_equals_offline_for_every_matcher(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
            // A barren seed pair (all OD draws too short) proves nothing;
            // skip rather than fail — other cases cover the property.
            return Ok(());
        }
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let cfg = HmmConfig::default();
        let nearest = NearestMatcher::new(net.clone(), planner.clone());
        let hmm = HmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let fmm = FmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
        let lhmm = LhmmMatcher::fit(net.clone(), planner.clone(), cfg, &samples);
        let mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
        for s in &samples {
            assert_replay_identical(&nearest, &s.sparse);
            assert_replay_identical(&hmm, &s.sparse);
            assert_replay_identical(&fmm, &s.sparse);
            assert_replay_identical(&lhmm, &s.sparse);
            assert_replay_identical(&mma, &s.sparse);
        }
    }

    #[test]
    fn stream_engine_finalizes_to_offline_for_arbitrary_interleavings(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        threads in 1usize..5,
        interleave_seed in 0u64..1_000,
        max_chunk in 1usize..6,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
            return Ok(());
        }
        let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let cfg = HmmConfig::default();
        // One global-attention decoder (MMA) and one lattice decoder (HMM)
        // cover both session shapes; FMM/LHMM share HMM's session type.
        let hmm = Arc::new(HmmMatcher::new(net.clone(), planner.clone(), cfg));
        let mma = Arc::new(Mma::new(net.clone(), planner, None, MmaConfig::small()));
        assert_engine_identical(&hmm, &batch, threads, interleave_seed, max_chunk, false);
        assert_engine_identical(&mma, &batch, threads, interleave_seed, max_chunk, false);
    }

    #[test]
    fn forced_migrations_preserve_offline_identity(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        threads in 2usize..5,
        interleave_seed in 0u64..1_000,
        max_chunk in 1usize..6,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
            return Ok(());
        }
        let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let cfg = HmmConfig::default();
        let hmm = Arc::new(HmmMatcher::new(net.clone(), planner.clone(), cfg));
        let mma = Arc::new(Mma::new(net.clone(), planner, None, MmaConfig::small()));
        assert_engine_identical(&hmm, &batch, threads, interleave_seed, max_chunk, true);
        assert_engine_identical(&mma, &batch, threads, interleave_seed, max_chunk, true);
    }
}

/// Pushing a trajectory in one session and in several id-distinct sessions
/// through one engine must not cross-contaminate: per-worker scratch is
/// shared between sessions, per-session decoder state must not be.
#[test]
fn sessions_sharing_a_worker_do_not_interfere() {
    let (net, samples) = arbitrary_world(3, 5);
    assert!(!samples.is_empty());
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let hmm = Arc::new(HmmMatcher::new(net, planner, HmmConfig::default()));
    let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
    // One worker → every session lands on the same scratch.
    assert_engine_identical(&hmm, &batch, 1, 17, 3, false);
}

/// The acceptance bar of the migration feature: every `OnlineMatcher` in
/// the repository survives forced migrations at arbitrary stream positions
/// with bitwise-identical output — including the decoders whose sessions
/// carry a full Viterbi lattice (HMM/FMM/LHMM) and accumulated candidate
/// sets (MMA).
#[test]
fn every_matcher_survives_forced_migrations() {
    let (net, samples) = arbitrary_world(6, 11);
    assert!(!samples.is_empty());
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let cfg = HmmConfig::default();
    let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
    let nearest = Arc::new(NearestMatcher::new(net.clone(), planner.clone()));
    let hmm = Arc::new(HmmMatcher::new(net.clone(), planner.clone(), cfg.clone()));
    let fmm = Arc::new(FmmMatcher::new(net.clone(), planner.clone(), cfg.clone()));
    let lhmm = Arc::new(LhmmMatcher::fit(net.clone(), planner.clone(), cfg, &samples));
    let mma = Arc::new(Mma::new(net.clone(), planner, None, MmaConfig::small()));
    assert_engine_identical(&nearest, &batch, 3, 23, 4, true);
    assert_engine_identical(&hmm, &batch, 3, 23, 4, true);
    assert_engine_identical(&fmm, &batch, 3, 23, 4, true);
    assert_engine_identical(&lhmm, &batch, 3, 23, 4, true);
    assert_engine_identical(&mma, &batch, 3, 23, 4, true);
}
