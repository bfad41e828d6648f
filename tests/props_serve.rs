//! Property tests for the network ingest front-end (`trmma_core::serve`):
//!
//! * **Wire codec soundness** — arbitrary frames (any version byte, any
//!   kind byte, arbitrary tenant/session ids and payload bytes) round-trip
//!   bitwise through `Frame::encode`/`Frame::decode`; truncating the
//!   encoding at *every* cut point and flipping seeded single bits are
//!   rejected with typed `SnapshotError`s — never a panic, never a
//!   silently-corrupted frame (CRC-32 detects every single-bit error);
//! * **Loopback identity** — for every `OnlineMatcher` in the repository
//!   (Nearest, HMM, FMM, LHMM, MMA), trajectories pushed through a real
//!   loopback TCP socket — arbitrary cross-session interleavings, chunk
//!   sizes and inflight windows — finalize to results bitwise-identical to
//!   the offline `match_trajectory_with` decode of the same points, over
//!   arbitrary generated road networks.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher, NearestMatcher};
use trmma::core::serve::VERSION;
use trmma::core::{Frame, Mma, MmaConfig, Reply, ServeClient, ServeConfig, Server, StreamOptions};
use trmma::roadnet::{generate_city, NetworkConfig, RoadNetwork, RoutePlanner};
use trmma::traj::gen::{generate_trajectory, sparsify, TrajConfig};
use trmma::traj::types::Trajectory;
use trmma::traj::{OnlineMatcher, Sample};

/// Generates a city plus a handful of sparse samples from a seed pair
/// (the `props_streaming` world generator).
fn arbitrary_world(net_seed: u64, traj_seed: u64) -> (Arc<RoadNetwork>, Vec<Sample>) {
    let side = 6 + (net_seed % 3) as usize; // 6x6 .. 8x8 grids
    let net = Arc::new(generate_city(&NetworkConfig::with_size(side, side, net_seed)));
    let cfg = TrajConfig { min_points: 8, ..TrajConfig::default() };
    let mut rng = StdRng::seed_from_u64(traj_seed);
    let mut samples = Vec::new();
    for _ in 0..10 {
        if samples.len() == 3 {
            break;
        }
        if let Some(raw) = generate_trajectory(&net, &cfg, &mut rng) {
            samples.push(sparsify(&raw, 0.3, &mut rng));
        }
    }
    (net, samples)
}

/// An arbitrary frame from a seed: version usually current (sometimes
/// random), kind any byte in the request/reply/unknown space, arbitrary
/// ids and payload.
fn arbitrary_frame(seed: u64) -> Frame {
    let mut rng = StdRng::seed_from_u64(seed);
    let version = if rng.gen_range(0..4) == 0 {
        rng.gen_range(0..u32::from(u16::MAX)) as u16
    } else {
        VERSION
    };
    let kind = rng.gen_range(0..32) as u8;
    let tenant = rng.gen_range(0..u64::MAX);
    let session = rng.gen_range(0..u64::MAX);
    let len = rng.gen_range(0..64) as usize;
    let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256) as u8).collect();
    Frame { version, kind, tenant, session, payload }
}

/// Streams `trips` into a loopback server under an arbitrary interleaving
/// (seeded session choice and chunk length) with a bounded inflight
/// window, then asserts every `Final` equals the offline scratch decode.
fn assert_loopback_identical<M: OnlineMatcher + 'static>(
    matcher: &Arc<M>,
    trips: &[Trajectory],
    stream_seed: u64,
) {
    let cfg = ServeConfig::default().stream(StreamOptions::with_threads(2).idle_timeout_s(0.0));
    let server = Server::start(matcher.clone(), cfg).expect("loopback server starts");
    let mut client = ServeClient::connect(server.local_addr(), 9).expect("loopback connect");
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let window = 1 + rng.gen_range(0..8usize);
    // Arbitrary (but collision-free) client session ids.
    let ids: Vec<u64> = (0..trips.len()).map(|i| 1000 + 17 * i as u64).collect();
    for (i, t) in trips.iter().enumerate() {
        if !t.is_empty() {
            client.open(ids[i]).expect("open session");
        }
    }
    let mut cursors = vec![0usize; trips.len()];
    let mut open: Vec<usize> = (0..trips.len()).filter(|&i| !trips[i].is_empty()).collect();
    let mut inflight = 0usize;
    let drain_one = |client: &mut ServeClient, inflight: &mut usize| match client
        .recv_reply()
        .expect("reply mid-stream")
    {
        Reply::Ack { .. } => *inflight -= 1,
        r => panic!("{}: unexpected reply mid-stream: {r:?}", M::NAME),
    };
    while !open.is_empty() {
        let pick = rng.gen_range(0..open.len());
        let t = open[pick];
        let chunk = 1 + rng.gen_range(0..3);
        for _ in 0..chunk {
            if cursors[t] == trips[t].len() {
                break;
            }
            while inflight >= window {
                drain_one(&mut client, &mut inflight);
            }
            client.push(ids[t], trips[t].points[cursors[t]]).expect("push frame");
            cursors[t] += 1;
            inflight += 1;
        }
        if cursors[t] == trips[t].len() {
            open.swap_remove(pick);
        }
    }
    while inflight > 0 {
        drain_one(&mut client, &mut inflight);
    }
    let mut finals: HashMap<u64, trmma::traj::MatchResult> = HashMap::new();
    // Finalize in a different arbitrary order than the streaming order.
    let mut order: Vec<usize> = (0..trips.len()).filter(|&i| !trips[i].is_empty()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    for &t in &order {
        let (points, result) = client.finalize(ids[t]).expect("finalize session");
        assert_eq!(points as usize, trips[t].len(), "{}: ack count", M::NAME);
        finals.insert(ids[t], result);
    }
    let mut scratch = matcher.make_scratch();
    for (i, t) in trips.iter().enumerate() {
        if t.is_empty() {
            continue;
        }
        let offline = matcher.match_trajectory_with(&mut scratch, t);
        assert_eq!(
            finals.get(&ids[i]),
            Some(&offline),
            "{}: socket decode of session {i} diverged from offline (window {window})",
            M::NAME
        );
    }
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn wire_codec_round_trips_and_rejects_corruption(frame_seed in 0u64..100_000) {
        let frame = arbitrary_frame(frame_seed);
        let bytes = frame.encode().expect("small frames encode");
        let back = Frame::decode(&bytes).expect("encoded frames decode");
        prop_assert_eq!(&back, &frame, "decode must invert encode");
        prop_assert_eq!(
            back.encode().expect("re-encode"),
            bytes.clone(),
            "round trip must be bitwise"
        );
        // Truncation at every cut point is a typed error, never a panic.
        for cut in 0..bytes.len() {
            prop_assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "truncation at {} of {} must fail",
                cut,
                bytes.len()
            );
        }
        // Seeded single-bit flips: CRC-32 detects every single-bit error,
        // so a flipped frame must be rejected, not silently mis-decoded.
        let mut rng = StdRng::seed_from_u64(frame_seed ^ 0xF11F);
        for _ in 0..16 {
            let pos = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8) as u8;
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            prop_assert!(
                Frame::decode(&flipped).is_err(),
                "bit {} of byte {} flipped undetected",
                bit,
                pos
            );
        }
    }

    #[test]
    fn loopback_socket_decode_is_identical_to_offline_for_every_matcher(
        net_seed in 0u64..1_000,
        traj_seed in 0u64..1_000,
        stream_seed in 0u64..1_000,
    ) {
        let (net, samples) = arbitrary_world(net_seed, traj_seed);
        if samples.is_empty() {
            // A barren seed pair (all OD draws too short) proves nothing;
            // skip rather than fail — other cases cover the property.
            return Ok(());
        }
        let trips: Vec<Trajectory> = samples.iter().map(|s| s.sparse.clone()).collect();
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let cfg = HmmConfig::default();
        let nearest = Arc::new(NearestMatcher::new(net.clone(), planner.clone()));
        let hmm = Arc::new(HmmMatcher::new(net.clone(), planner.clone(), cfg.clone()));
        let fmm = Arc::new(FmmMatcher::new(net.clone(), planner.clone(), cfg.clone()));
        let lhmm = Arc::new(LhmmMatcher::fit(net.clone(), planner.clone(), cfg, &samples));
        let mma = Arc::new(Mma::new(net.clone(), planner, None, MmaConfig::small()));
        assert_loopback_identical(&nearest, &trips, stream_seed);
        assert_loopback_identical(&hmm, &trips, stream_seed);
        assert_loopback_identical(&fmm, &trips, stream_seed);
        assert_loopback_identical(&lhmm, &trips, stream_seed);
        assert_loopback_identical(&mma, &trips, stream_seed);
    }
}
