//! Property tests for session snapshot/restore and crash recovery:
//!
//! * **Snapshot transparency** — for *every* `OnlineMatcher` in the
//!   repository (Nearest, HMM, FMM, LHMM, MMA), freezing a session to
//!   bytes at an arbitrary stream position and thawing it yields a session
//!   whose remaining updates, watermarks and finalize are bitwise-identical
//!   to the uninterrupted original (and to the offline decode);
//! * **Envelope integrity** — the versioned/checksummed envelope
//!   round-trips exactly, and any single corrupted byte or truncation is
//!   rejected with an error, never a panic or a silent wrong decode — and
//!   so is a payload a sender encoded *correctly* around a candidate the
//!   decoder could not index, which no checksum catches;
//! * **Engine handoff** — draining a live engine to snapshots at an
//!   arbitrary cut point (including sessions snapshotted mid-migration)
//!   and restoring onto a successor engine finalizes every session
//!   bitwise-identical to the offline decode;
//! * **Chaos zero-loss** — with seeded fault injection (worker panics,
//!   stalls, reply delays) the supervisor rebuilds every session from its
//!   checkpoint + journal: nothing is lost and every final match equals
//!   the fault-free decode.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher, NearestMatcher};
use trmma::core::{
    FaultPlan, FinalizeReason, Mma, MmaConfig, SessionId, SessionSnapshot, StreamEngine,
    StreamEvent, StreamOptions,
};
use trmma::roadnet::{generate_city, NetworkConfig, RoadNetwork, RoutePlanner};
use trmma::traj::gen::{generate_trajectory, sparsify, TrajConfig};
use trmma::traj::snapshot::{
    put_cand_sets, put_f64, put_matched, put_trajectory, put_usize, read_cand_sets,
    read_trajectory, Reader,
};
use trmma::traj::types::{MatchedPoint, Trajectory};
use trmma::traj::{Candidate, MapMatcher, OnlineMatcher, Sample, ScratchMatcher, SnapshotError};

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

/// Pushes `cut` points, freezes the session through the full byte
/// envelope, thaws it, and runs the original and the restored session
/// side by side over the remaining points: every update and the finalize
/// must be bitwise-identical (and equal to the offline decode).
fn assert_snapshot_transparent<M: OnlineMatcher>(matcher: &M, traj: &Trajectory, cut: usize) {
    let offline = matcher.match_trajectory(traj);
    let mut scratch = matcher.make_scratch();
    let mut original = matcher.begin_session();
    let mut last_t = f64::NEG_INFINITY;
    for &p in &traj.points[..cut] {
        matcher.push_point(&mut scratch, &mut original, p);
        last_t = p.t;
    }
    let mut payload = Vec::new();
    matcher.snapshot_session(&original, &mut payload);
    let envelope = SessionSnapshot {
        session: 42,
        matcher: matcher.name().to_string(),
        seq: cut as u64,
        last_t,
        payload,
    };
    let bytes = envelope.encode().expect("envelope encodes");
    // Any single corrupted byte is caught (CRC-32 detects all bursts of
    // up to 32 bits), and any truncation errors out instead of panicking.
    let mid = bytes.len() / 2;
    for i in [0, mid, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[i] ^= 0x10;
        assert!(
            SessionSnapshot::decode(&bad).is_err(),
            "{}: corrupt byte {i} accepted",
            matcher.name()
        );
        assert!(
            SessionSnapshot::decode(&bytes[..i]).is_err(),
            "{}: truncation accepted",
            matcher.name()
        );
    }
    let decoded = SessionSnapshot::decode(&bytes).expect("envelope round-trips");
    assert_eq!(decoded, envelope, "{}: envelope not bitwise-stable", matcher.name());
    decoded.expect_matcher(matcher.name()).expect("matcher name preserved");
    let mut restored =
        matcher.restore_session(&decoded.payload).expect("snapshot payload restores");
    assert_eq!(
        matcher.session_len(&restored),
        matcher.session_len(&original),
        "{}: restored length differs at cut {cut}",
        matcher.name()
    );
    assert_eq!(
        matcher.session_watermark(&restored),
        matcher.session_watermark(&original),
        "{}: restored watermark differs at cut {cut}",
        matcher.name()
    );
    for (i, &p) in traj.points[cut..].iter().enumerate() {
        let a = matcher.push_point(&mut scratch, &mut original, p);
        let b = matcher.push_point(&mut scratch, &mut restored, p);
        assert_eq!(a, b, "{}: update {i} after restore diverged (cut {cut})", matcher.name());
    }
    let a = matcher.finalize(&mut scratch, original);
    let b = matcher.finalize(&mut scratch, restored);
    assert_eq!(a, b, "{}: finalize diverged after restore (cut {cut})", matcher.name());
    assert_eq!(b, offline, "{}: restored session diverged from offline", matcher.name());
}

/// Streams a prefix of every session into one engine, drains it to
/// snapshots (optionally with a forced migration in flight), restores on
/// a successor engine, streams the rest, and asserts every final equals
/// the offline decode of the full trajectory.
fn assert_handoff_identical<M: OnlineMatcher + 'static>(
    matcher: &Arc<M>,
    batch: &[Trajectory],
    threads: usize,
    cut_seed: u64,
    migrate_in_flight: bool,
) {
    let opts = || StreamOptions::with_threads(threads).idle_timeout_s(0.0).rebalance_threshold(0);
    let first = StreamEngine::new(matcher.clone(), opts());
    let mut rng = StdRng::seed_from_u64(cut_seed);
    let mut cuts = Vec::with_capacity(batch.len());
    for (sid, t) in batch.iter().enumerate() {
        // Cut anywhere, including 0 (nothing streamed yet → nothing to
        // drain for that session) and len (fully streamed, not finished).
        let cut = rng.gen_range(0..t.len() + 1);
        cuts.push(cut);
        for &p in &t.points[..cut] {
            assert!(first.push(sid as SessionId, p));
        }
    }
    if migrate_in_flight && threads > 1 {
        for sid in 0..batch.len() {
            first.migrate(sid as SessionId, rng.gen_range(0..threads));
        }
    }
    let snaps = first.drain_snapshots(Duration::from_secs(30));
    let expected: usize = cuts.iter().filter(|&&c| c > 0).count();
    assert_eq!(snaps.len(), expected, "one snapshot per session that saw points");
    let _ = first.shutdown();
    let second = StreamEngine::new(matcher.clone(), opts());
    let restored = second.restore(&snaps).expect("snapshots restore onto the successor");
    assert_eq!(restored, expected);
    for (sid, t) in batch.iter().enumerate() {
        for &p in &t.points[cuts[sid]..] {
            assert!(second.push(sid as SessionId, p));
        }
        assert!(second.finish(sid as SessionId));
    }
    let (events, _) = second.shutdown();
    let finals: HashMap<SessionId, _> = events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::Finalized { session, result, .. } => Some((*session, result.clone())),
            StreamEvent::Update { .. } => None,
        })
        .collect();
    for (sid, t) in batch.iter().enumerate() {
        if t.is_empty() {
            continue;
        }
        assert_eq!(
            finals.get(&(sid as SessionId)),
            Some(&matcher.match_trajectory(t)),
            "{} session {sid} diverged across handoff (cut {})",
            matcher.name(),
            cuts[sid]
        );
    }
}

/// A well-formed envelope (magic, version, CRC all valid) around an MMA
/// payload whose candidates the decoder cannot index: a segment id past the
/// network, or a layer with no candidate to pick. `restore_session` is the
/// boundary — it must refuse both with a typed error, where the next
/// `push_point` / `finalize` used to panic.
#[test]
fn hostile_mma_payload_in_a_valid_envelope_is_refused() {
    let (net, samples) = arbitrary_world(3, 11);
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let mma = Mma::new(net.clone(), planner, None, MmaConfig::small());
    let traj = &samples[0].sparse;
    let mut cand = trmma::traj::CandidateScratch::new();
    let genuine: Vec<Vec<Candidate>> = traj
        .points
        .iter()
        .map(|p| {
            let mut row = Vec::new();
            mma.finder().candidates_into(p.pos, &mut cand, &mut row);
            row
        })
        .collect();
    let through_envelope = |sets: &[Vec<Candidate>]| {
        let mut payload = Vec::new();
        put_trajectory(&mut payload, traj);
        put_cand_sets(&mut payload, sets);
        let envelope = SessionSnapshot {
            session: 7,
            matcher: mma.name().to_string(),
            seq: traj.len() as u64,
            last_t: traj.points.last().unwrap().t,
            payload,
        };
        let decoded = SessionSnapshot::decode(&envelope.encode().expect("envelope encodes"))
            .expect("the envelope itself is well-formed");
        decoded.expect_matcher(mma.name()).expect("matcher name preserved");
        mma.restore_session(&decoded.payload)
    };

    let restored = through_envelope(&genuine).expect("a genuine payload restores");
    let mut scratch = trmma::core::MmaScratch::new();
    assert_eq!(mma.finalize(&mut scratch, restored), mma.match_trajectory(traj));

    let mut bad_seg = genuine.clone();
    bad_seg[0][0].seg = trmma::roadnet::SegmentId((net.num_segments() + 7) as u32);
    assert_eq!(
        through_envelope(&bad_seg).err(),
        Some(SnapshotError::Malformed("candidate segment out of range"))
    );
    let mut emptied = genuine;
    emptied[traj.len() / 2].clear();
    assert_eq!(
        through_envelope(&emptied).err(),
        Some(SnapshotError::Malformed("empty candidate layer"))
    );
}

/// The HMM-family and Nearest counterparts: well-formed envelopes around
/// payloads whose lattice or matches the decoder cannot index — an empty
/// candidate layer, a back-pointer past the layer below, a candidate or a
/// matched segment past the network. Each restored `Ok` once and panicked
/// the `finalize` after it; each must now be a typed refusal.
#[test]
fn hostile_hmm_and_nearest_payloads_in_a_valid_envelope_are_refused() {
    let (net, samples) = arbitrary_world(3, 11);
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let hmm = HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default());
    let nearest = NearestMatcher::new(net.clone(), planner);
    let traj = &samples[0].sparse;
    let through_envelope = |name: &str, payload: Vec<u8>| {
        let envelope = SessionSnapshot {
            session: 7,
            matcher: name.to_string(),
            seq: traj.len() as u64,
            last_t: traj.points.last().unwrap().t,
            payload,
        };
        let decoded = SessionSnapshot::decode(&envelope.encode().expect("envelope encodes"))
            .expect("the envelope itself is well-formed");
        decoded.expect_matcher(name).expect("matcher name preserved");
        decoded.payload
    };

    // The genuine HMM lattice, taken apart through its own snapshot.
    let mut scratch = hmm.make_scratch();
    let mut session = hmm.begin_session();
    for &p in &traj.points {
        hmm.push_point(&mut scratch, &mut session, p);
    }
    let mut genuine = Vec::new();
    hmm.snapshot_session(&session, &mut genuine);
    /// An HMM payload taken apart: candidate layers, scores, back-pointers.
    #[derive(Clone)]
    struct Lattice {
        cands: Vec<Vec<Candidate>>,
        score: Vec<Vec<f64>>,
        back: Vec<Vec<usize>>,
    }
    let mut r = Reader::new(&genuine);
    let points = read_trajectory(&mut r).unwrap();
    let cands = read_cand_sets(&mut r).unwrap();
    let score = cands.iter().map(|set| set.iter().map(|_| r.f64().unwrap()).collect()).collect();
    let back = cands.iter().map(|set| set.iter().map(|_| r.usize().unwrap()).collect()).collect();
    let watermark = r.usize().unwrap();
    r.expect_end().unwrap();
    let genuine_lattice = Lattice { cands, score, back };
    let restore = |edit: &dyn Fn(&mut Lattice)| {
        let mut l = genuine_lattice.clone();
        edit(&mut l);
        let mut payload = Vec::new();
        put_trajectory(&mut payload, &points);
        put_cand_sets(&mut payload, &l.cands);
        l.score.iter().flatten().for_each(|&x| put_f64(&mut payload, x));
        l.back.iter().flatten().for_each(|&x| put_usize(&mut payload, x));
        put_usize(&mut payload, watermark);
        hmm.restore_session(&through_envelope(hmm.name(), payload)).err()
    };
    assert_eq!(restore(&|_| {}), None, "the reassembled genuine payload restores");
    let restored = hmm.restore_session(&through_envelope(hmm.name(), genuine)).unwrap();
    assert_eq!(hmm.finalize(&mut scratch, restored), hmm.match_trajectory(traj));

    let mid = traj.len() / 2;
    let empty = |l: &mut Lattice| {
        l.cands[mid].clear();
        l.score[mid].clear();
        l.back[mid].clear();
    };
    assert_eq!(restore(&empty), Some(SnapshotError::Malformed("empty candidate layer")));
    let far = genuine_lattice.cands[0].len() + 3;
    assert_eq!(
        restore(&|l| l.back[1][0] = far),
        Some(SnapshotError::Malformed("back-pointer out of range"))
    );
    let past_net = trmma::roadnet::SegmentId((net.num_segments() + 7) as u32);
    assert_eq!(
        restore(&|l| l.cands[mid][0].seg = past_net),
        Some(SnapshotError::Malformed("candidate segment out of range"))
    );

    // Nearest: a matched segment past the network.
    let mut session = nearest.begin_session();
    for &p in &traj.points {
        nearest.push_point(&mut (), &mut session, p);
    }
    let mut payload = Vec::new();
    nearest.snapshot_session(&session, &mut payload);
    let restored = nearest.restore_session(&through_envelope(nearest.name(), payload)).unwrap();
    assert_eq!(nearest.finalize(&mut (), restored), nearest.match_trajectory(traj));
    let mut payload = Vec::new();
    put_usize(&mut payload, traj.len());
    for (i, p) in traj.points.iter().enumerate() {
        let seg = if i == mid { past_net } else { trmma::roadnet::SegmentId(0) };
        put_matched(&mut payload, &MatchedPoint::new(seg, 0.5, p.t));
    }
    assert_eq!(
        nearest.restore_session(&through_envelope(nearest.name(), payload)).err(),
        Some(SnapshotError::Malformed("matched segment out of range"))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn snapshot_restore_is_transparent_for_every_matcher(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
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
            #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
            #[allow(clippy::cast_sign_loss)]
            let cut = ((s.sparse.len() as f64) * cut_frac) as usize;
            assert_snapshot_transparent(&nearest, &s.sparse, cut);
            assert_snapshot_transparent(&hmm, &s.sparse, cut);
            assert_snapshot_transparent(&fmm, &s.sparse, cut);
            assert_snapshot_transparent(&lhmm, &s.sparse, cut);
            assert_snapshot_transparent(&mma, &s.sparse, cut);
        }
    }

    #[test]
    fn engine_handoff_preserves_offline_identity(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        threads in 1usize..4,
        cut_seed in 0u64..1_000,
        migrate in 0u8..2,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
            return Ok(());
        }
        let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let hmm = Arc::new(HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default()));
        let mma = Arc::new(Mma::new(net.clone(), planner, None, MmaConfig::small()));
        assert_handoff_identical(&hmm, &batch, threads, cut_seed, migrate == 1);
        assert_handoff_identical(&mma, &batch, threads, cut_seed, migrate == 1);
    }

    /// The acceptance bar of the supervision feature, as a property:
    /// injected worker panics at seeded stream positions lose zero
    /// sessions and change zero output bits.
    #[test]
    fn chaos_engine_loses_nothing_and_changes_nothing(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        threads in 1usize..4,
    ) {
        FaultPlan::silence_injected_panics();
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
            return Ok(());
        }
        let batch: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let hmm = Arc::new(HmmMatcher::new(net.clone(), planner.clone(), HmmConfig::default()));
        let plan = FaultPlan {
            seed: fault_seed,
            panic_per_mille: 120,
            max_panics: 4,
            stall_per_mille: 30,
            stall: Duration::from_millis(1),
            reply_delay_per_mille: 50,
            reply_delay: Duration::from_millis(1),
        };
        let engine = StreamEngine::with_faults(
            hmm.clone(),
            StreamOptions::with_threads(threads).idle_timeout_s(0.0).checkpoint_every(4),
            plan,
        );
        for (sid, t) in batch.iter().enumerate() {
            for &p in &t.points {
                prop_assert!(engine.push(sid as SessionId, p));
            }
        }
        for sid in 0..batch.len() {
            prop_assert!(engine.finish(sid as SessionId));
        }
        prop_assert!(engine.quiesce(Duration::from_secs(30)));
        let rs = engine.router_stats();
        prop_assert_eq!(rs.sessions_lost, 0, "supervision lost sessions: {:?}", rs);
        let (events, _) = engine.shutdown();
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
        for (sid, t) in batch.iter().enumerate() {
            prop_assert_eq!(
                finals.get(&(sid as SessionId)),
                Some(&hmm.match_trajectory(t)),
                "session {} diverged under chaos (restarts {})",
                sid,
                rs.worker_restarts
            );
        }
    }
}
