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
//!   exactly the offline decode, for every `OnlineMatcher`, with each
//!   session placed once and never split or duplicated;
//! * **Input validation** — every matcher's `match_trajectory` and
//!   `push_point` refuse a NaN or infinite x, y or t, naming the point.

use std::collections::HashMap;
use std::sync::Arc;

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
use trmma::traj::{MapMatcher, OnlineMatcher, Sample};

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
        assert_eq!(provisional.t, p.t, "{}: provisional must match the pushed point", M::NAME);
        assert!(
            update.stable_prefix >= prev_watermark,
            "{}: watermark regressed at point {i}",
            M::NAME
        );
        assert!(
            update.stable_prefix <= i + 1,
            "{}: watermark beyond pushed count at point {i}",
            M::NAME
        );
        // The introspection API must agree with what push_point just
        // reported.
        assert_eq!(matcher.session_len(&session), i + 1, "{}: session_len", M::NAME);
        assert_eq!(
            matcher.session_watermark(&session),
            update.stable_prefix,
            "{}: session_watermark",
            M::NAME
        );
        prev_watermark = update.stable_prefix;
        watermarks.push(update.stable_prefix);
        prefix_decodes.push(matcher.finalize(&mut scratch, session.clone()).matched);
    }
    let online = matcher.finalize(&mut scratch, session);
    assert_eq!(online, offline, "{}: online finalize != offline decode", M::NAME);
    // Watermark soundness: the prefix pinned at time i is byte-identical in
    // every longer decode, including the final one.
    for (i, &w) in watermarks.iter().enumerate() {
        for later in prefix_decodes.iter().skip(i) {
            assert_eq!(
                &prefix_decodes[i][..w],
                &later[..w],
                "{}: stabilized prefix changed after point {i}",
                M::NAME
            );
        }
        assert_eq!(
            &prefix_decodes[i][..w],
            &offline.matched[..w],
            "{}: final decode contradicts watermark at point {i}",
            M::NAME
        );
    }
}

/// Replays sessions through a `StreamEngine` under an arbitrary
/// interleaving (random session choice, random chunk length) and asserts
/// every finalized result equals the offline decode.
fn assert_engine_identical<M: OnlineMatcher + 'static>(
    matcher: &Arc<M>,
    batch: &[Trajectory],
    threads: usize,
    interleave_seed: u64,
    max_chunk: usize,
) {
    let engine = StreamEngine::new(
        matcher.clone(),
        StreamOptions::with_threads(threads).idle_timeout_s(0.0),
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
        if cursors[sid] == batch[sid].len() {
            open.swap_remove(pick);
        }
    }
    for sid in 0..batch.len() {
        engine.finish(sid as SessionId);
    }
    let rs = engine.router_stats();
    let placed: u64 = rs.workers.iter().map(|w| w.sessions_placed).sum();
    assert_eq!(placed, non_empty as u64, "{}: placement per session", M::NAME);
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
        "{}: a session must never be split",
        M::NAME
    );
    for (sid, t) in batch.iter().enumerate() {
        if t.is_empty() {
            continue;
        }
        assert_eq!(
            finals.get(&(sid as SessionId)),
            Some(&matcher.match_trajectory(t)),
            "{} session {sid} diverged at {threads} threads",
            M::NAME
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
        assert_engine_identical(&hmm, &batch, threads, interleave_seed, max_chunk);
        assert_engine_identical(&mma, &batch, threads, interleave_seed, max_chunk);
    }
}

/// The message `f` panics with.
fn panic_message(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
    match err.downcast::<String>() {
        Ok(msg) => *msg,
        Err(err) => err.downcast_ref::<&str>().map_or_else(String::new, |s| (*s).to_string()),
    }
}

/// Puts NaN / ±inf into x, y and t of a trajectory's second point and
/// asserts that both entry points refuse it, naming the index and value.
fn assert_rejects_non_finite<M: OnlineMatcher>(matcher: &M, traj: &Trajectory) {
    let p = traj.points[1];
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let (mut x, mut y, mut t) = (p, p, p);
        x.pos.x = v;
        y.pos.y = v;
        t.t = v;
        for (axis, bad) in [("x", x), ("y", y), ("t", t)] {
            let want = format!("{axis} = {v}");
            let check = |msg: String| {
                let named = msg.contains("GPS point 1 must have finite x, y and t");
                assert!(named && msg.contains(&want), "{}: {msg} should name {want}", M::NAME);
            };
            let mut broken = traj.clone();
            broken.points[1] = bad;
            check(panic_message(|| {
                let _ = matcher.match_trajectory(&broken);
            }));
            let mut scratch = matcher.make_scratch();
            let mut session = matcher.begin_session();
            matcher.push_point(&mut scratch, &mut session, traj.points[0]);
            check(panic_message(|| {
                let _ = matcher.push_point(&mut scratch, &mut session, bad);
            }));
        }
    }
}

/// Direct callers get one input check, in the provided trait methods: a
/// NaN or infinite coordinate or timestamp panics with the point's index
/// and value before any decoder sees it.
#[test]
fn every_matcher_refuses_non_finite_points() {
    let (net, samples) = arbitrary_world(3, 5);
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let cfg = HmmConfig::default();
    let traj = &samples[0].sparse;
    assert_rejects_non_finite(&NearestMatcher::new(net.clone(), planner.clone()), traj);
    assert_rejects_non_finite(&HmmMatcher::new(net.clone(), planner.clone(), cfg.clone()), traj);
    assert_rejects_non_finite(&FmmMatcher::new(net.clone(), planner.clone(), cfg.clone()), traj);
    let lhmm = LhmmMatcher::fit(net.clone(), planner.clone(), cfg, &samples);
    assert_rejects_non_finite(&lhmm, traj);
    assert_rejects_non_finite(&Mma::new(net, planner, None, MmaConfig::small()), traj);
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
    assert_engine_identical(&hmm, &batch, 1, 17, 3);
}

/// Every `OnlineMatcher` in the repository streams through a three-worker
/// engine, interleaved with the other sessions, to bitwise-identical
/// output — including the decoders whose sessions carry a full Viterbi
/// lattice (HMM/FMM/LHMM) and accumulated candidate sets (MMA).
#[test]
fn every_matcher_streams_through_the_engine_to_offline_identity() {
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
    assert_engine_identical(&nearest, &batch, 3, 23, 4);
    assert_engine_identical(&hmm, &batch, 3, 23, 4);
    assert_engine_identical(&fmm, &batch, 3, 23, 4);
    assert_engine_identical(&lhmm, &batch, 3, 23, 4);
    assert_engine_identical(&mma, &batch, 3, 23, 4);
}
