//! Integration tests for the ingest service's operational story:
//!
//! * **Rolling restart** — sessions stream into server A mid-trip, a
//!   `Snapshot` frame drains every live session, A is stopped, `Restore`
//!   frames rehydrate them into a fresh server B where the trips finish —
//!   zero sessions lost, finals bitwise-identical to the uninterrupted
//!   offline decode, with `FaultPlan` stalls injected on both sides of the
//!   handover (the PR 6 chaos machinery);
//! * **Adversarial input** — oversized length prefixes, unknown frame
//!   kinds, wrong versions, wrong-tenant session touches, non-finite
//!   points and a slow-loris client each get a *typed* refusal and never
//!   stall other tenants, asserted via the `ServeStats` fairness counters;
//! * **Hand-offs** — every producer rings the pump's doorbell: idle round
//!   trips, `Server::stop` and recovery from injected worker panics never
//!   wait out the pump's backstop.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trmma::baselines::{HmmConfig, HmmMatcher, NearestMatcher};
use trmma::core::serve::{HEADER_LEN, MAGIC, VERSION};
use trmma::core::{
    BusyCode, ClientError, FaultPlan, Frame, FrameKind, RefuseCode, Reply, ServeClient,
    ServeConfig, Server, StreamOptions,
};
use trmma::geom::Vec2;
use trmma::roadnet::{RoadNetwork, RoutePlanner};
use trmma::traj::dataset::{build_dataset, DatasetConfig, Split};
use trmma::traj::types::{GpsPoint, Trajectory};
use trmma::traj::MapMatcher;

/// The idle pump's doorbell wait in `serve.rs` (`PUMP_BACKSTOP`): what a
/// producer that forgot to ring would cost each hand-off.
const PUMP_BACKSTOP: Duration = Duration::from_millis(100);

fn corpus() -> (Arc<RoadNetwork>, Arc<RoutePlanner>, Vec<Trajectory>) {
    let ds = build_dataset(&DatasetConfig::tiny());
    let net = Arc::new(ds.net.clone());
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let trips: Vec<Trajectory> =
        ds.samples(Split::Test, 0.2, 40).into_iter().take(4).map(|s| s.sparse).collect();
    (net, planner, trips)
}

fn world() -> (Arc<HmmMatcher>, Vec<Trajectory>) {
    let (net, planner, trips) = corpus();
    (Arc::new(HmmMatcher::new(net, planner, HmmConfig::default())), trips)
}

/// A decode that costs next to nothing, so timings measure the hand-offs.
fn nearest_world() -> (Arc<NearestMatcher>, Vec<Trajectory>) {
    let (net, planner, trips) = corpus();
    (Arc::new(NearestMatcher::new(net, planner)), trips)
}

fn base_cfg() -> ServeConfig {
    ServeConfig::default().stream(StreamOptions::with_threads(2).idle_timeout_s(0.0))
}

#[test]
fn rolling_restart_loses_no_sessions_and_finals_match_offline() {
    let (hmm, trips) = world();
    // Stalls on both servers: the drain and the restore replay must hold
    // under worker-side chaos, not just on a quiet engine.
    let stalls = FaultPlan {
        seed: 0xB0_0CE5,
        stall_per_mille: 250,
        stall: Duration::from_millis(2),
        ..FaultPlan::default()
    };
    let tenant = 3;
    let a = Server::start(hmm.clone(), base_cfg().faults(stalls)).expect("server A");
    let mut ca = ServeClient::connect(a.local_addr(), tenant).expect("connect A");
    for (i, t) in trips.iter().enumerate() {
        ca.open(i as u64).expect("open on A");
        let half = t.len() / 2;
        let acked = ca.stream_points(i as u64, &t.points[..half], 4).expect("stream first half");
        assert_eq!(acked as usize, half);
    }
    let snaps = ca.snapshot_all().expect("drain A");
    assert_eq!(snaps.len(), trips.len(), "every mid-stream session must drain");
    assert!(snaps.iter().all(|(owner, _)| *owner == tenant));
    let stats_a = a.stats();
    assert_eq!(stats_a.snapshots_out, trips.len() as u64);
    assert_eq!(stats_a.sessions_finalized, 0, "a drain is not a finalize");
    a.stop(); // "kill" server A

    let b = Server::start(hmm.clone(), base_cfg().faults(stalls)).expect("server B");
    let mut cb = ServeClient::connect(b.local_addr(), tenant).expect("connect B");
    for (owner, snap) in &snaps {
        cb.restore(*owner, snap).expect("restore into B");
    }
    for (i, t) in trips.iter().enumerate() {
        let half = t.len() / 2;
        let acked = cb.stream_points(i as u64, &t.points[half..], 4).expect("stream second half");
        assert_eq!(acked as usize, t.len() - half);
        let (points, result) = cb.finalize(i as u64).expect("finalize on B");
        assert_eq!(points as usize, t.len(), "point count must span both servers");
        assert_eq!(
            result,
            hmm.match_trajectory(t),
            "restarted session {i} diverged from the uninterrupted decode"
        );
    }
    let stats_b = b.stats();
    assert_eq!(stats_b.sessions_restored, trips.len() as u64, "zero sessions lost");
    assert_eq!(stats_b.sessions_finalized, trips.len() as u64);
    b.stop();
}

#[test]
fn oversized_length_prefix_gets_typed_refusal_without_stalling_others() {
    let (hmm, trips) = world();
    let server = Server::start(hmm.clone(), base_cfg().max_payload(1 << 16)).expect("server");

    // A hand-built header claiming a 256 MB payload: the server must refuse
    // on the prefix alone (never attempting to read or allocate the body)
    // and close the connection.
    let mut evil = ServeClient::connect(server.local_addr(), 66).expect("connect");
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.push(FrameKind::Push as u8);
    header.extend_from_slice(&66u64.to_le_bytes());
    header.extend_from_slice(&1u64.to_le_bytes());
    header.extend_from_slice(&(256u32 << 20).to_le_bytes());
    evil.send_bytes(&header).expect("send oversized prefix");
    match evil.recv_reply().expect("typed refusal") {
        Reply::Refused { code, detail, .. } => {
            assert_eq!(code, RefuseCode::Oversize);
            assert_eq!(detail, 256 << 20);
        }
        r => panic!("expected Oversize refusal, got {r:?}"),
    }

    // Another tenant streams through unaffected, on a fresh connection.
    let mut client = ServeClient::connect(server.local_addr(), 7).expect("connect");
    client.open(10).expect("open");
    client.stream_points(10, &trips[0].points, 4).expect("stream");
    let (_, result) = client.finalize(10).expect("finalize");
    assert_eq!(result, hmm.match_trajectory(&trips[0]));

    let stats = server.stats();
    assert_eq!(stats.oversize_rejected, 1);
    assert_eq!(stats.points_accepted, trips[0].len() as u64, "victim tenant lost nothing");
    server.stop();
}

#[test]
fn unknown_kind_and_bad_version_get_typed_refusals_and_conversation_continues() {
    let (hmm, trips) = world();
    let server = Server::start(hmm.clone(), base_cfg()).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), 5).expect("connect");

    // Unknown frame kind: refused with the kind byte as detail.
    client
        .send_frame(&Frame { version: VERSION, kind: 77, tenant: 5, session: 1, payload: vec![] })
        .expect("send unknown kind");
    match client.recv_reply().expect("reply") {
        Reply::Refused { code, detail, .. } => {
            assert_eq!(code, RefuseCode::UnknownKind);
            assert_eq!(detail, 77);
        }
        r => panic!("expected UnknownKind refusal, got {r:?}"),
    }

    // Reply kinds are not requests: sending one is equally refused.
    client
        .send_frame(&Frame {
            version: VERSION,
            kind: FrameKind::Ack as u8,
            tenant: 5,
            session: 1,
            payload: vec![],
        })
        .expect("send reply kind");
    match client.recv_reply().expect("reply") {
        Reply::Refused { code, .. } => assert_eq!(code, RefuseCode::UnknownKind),
        r => panic!("expected UnknownKind refusal, got {r:?}"),
    }

    // Wrong protocol version: refused with the version as detail.
    client
        .send_frame(&Frame {
            version: 9,
            kind: FrameKind::Open as u8,
            tenant: 5,
            session: 1,
            payload: vec![],
        })
        .expect("send bad version");
    match client.recv_reply().expect("reply") {
        Reply::Refused { code, detail, .. } => {
            assert_eq!(code, RefuseCode::BadVersion);
            assert_eq!(detail, 9);
        }
        r => panic!("expected BadVersion refusal, got {r:?}"),
    }

    // Dispatch-level refusals do not poison the connection: the same
    // socket still speaks the protocol.
    client.open(1).expect("open after refusals");
    client.stream_points(1, &trips[0].points, 4).expect("stream");
    let (_, result) = client.finalize(1).expect("finalize");
    assert_eq!(result, hmm.match_trajectory(&trips[0]));

    let stats = server.stats();
    assert_eq!(stats.unknown_kind, 2);
    assert_eq!(stats.bad_version, 1);
    server.stop();
}

#[test]
fn wrong_tenant_touch_is_refused_and_owner_is_unaffected() {
    let (hmm, trips) = world();
    let server = Server::start(hmm.clone(), base_cfg()).expect("server");
    let mut owner = ServeClient::connect(server.local_addr(), 1).expect("owner connect");
    let mut thief = ServeClient::connect(server.local_addr(), 2).expect("thief connect");

    owner.open(100).expect("owner opens");
    let half = trips[0].len() / 2;
    owner.stream_points(100, &trips[0].points[..half], 4).expect("owner streams");

    // A different tenant touching the session gets WrongTenant, for both
    // push and finalize — the probe leaks nothing and mutates nothing.
    match thief.push_wait(100, trips[0].points[half]) {
        Err(ClientError::Refused { code, .. }) => assert_eq!(code, RefuseCode::WrongTenant),
        r => panic!("expected WrongTenant on push, got {r:?}"),
    }
    match thief.finalize(100) {
        Err(ClientError::Refused { code, .. }) => assert_eq!(code, RefuseCode::WrongTenant),
        r => panic!("expected WrongTenant on finalize, got {r:?}"),
    }

    // Tenant ids are client-asserted: a probe from a tenant that never
    // opened anything must not mint registry state, or one connection
    // could grow the tenant map (and the ServeStats payload) without
    // bound by scanning ids.
    let stats = server.stats();
    assert_eq!(stats.wrong_tenant, 2);
    assert!(stats.tenant(2).is_none(), "probing must not create tenant state");

    // Once the thief is a real tenant (it opened a session of its own),
    // further probes do land in its fairness row.
    thief.open(200).expect("thief opens its own session");
    match thief.push_wait(100, trips[0].points[half]) {
        Err(ClientError::Refused { code, .. }) => assert_eq!(code, RefuseCode::WrongTenant),
        r => panic!("expected WrongTenant on push, got {r:?}"),
    }

    // The owner's stream continues bit-exact.
    owner.stream_points(100, &trips[0].points[half..], 4).expect("owner continues");
    let (points, result) = owner.finalize(100).expect("owner finalizes");
    assert_eq!(points as usize, trips[0].len());
    assert_eq!(result, hmm.match_trajectory(&trips[0]));

    let stats = server.stats();
    assert_eq!(stats.wrong_tenant, 3);
    let thief_load = stats.tenant(2).expect("an open tenant is accounted");
    assert_eq!(thief_load.refused, 1, "only post-open probes hit the row");
    assert_eq!(thief_load.points, 0, "no stolen point was admitted");
    assert_eq!(thief_load.live_sessions, 1);
    server.stop();
}

#[test]
fn slow_loris_is_reaped_and_never_stalls_other_tenants() {
    let (hmm, trips) = world();
    // Aggressive header deadline so the test turns around quickly.
    let server = Server::start(hmm.clone(), base_cfg().read_timeout_s(0.3)).expect("server");

    // The loris: half a header, then silence.
    let mut loris = TcpStream::connect(server.local_addr()).expect("loris connect");
    loris.write_all(&MAGIC).expect("partial header");
    loris.write_all(&[0x01]).expect("one more byte");

    // Meanwhile a well-behaved tenant streams a whole trip to completion —
    // the loris holds no lock and no worker.
    let mut client = ServeClient::connect(server.local_addr(), 4).expect("connect");
    client.open(8).expect("open");
    client.stream_points(8, &trips[1].points, 4).expect("stream");
    let (_, result) = client.finalize(8).expect("finalize");
    assert_eq!(result, hmm.match_trajectory(&trips[1]));

    // The server reaps the stalled connection at the read deadline: the
    // loris sees EOF, and the fairness counter records the kill.
    loris.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut buf = [0u8; 1];
    let n = loris.read(&mut buf).expect("loris socket closes cleanly");
    assert_eq!(n, 0, "server must close the slow-loris connection");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.slow_loris_closed >= 1 {
            assert_eq!(stats.slow_loris_closed, 1);
            assert_eq!(stats.points_accepted, trips[1].len() as u64);
            break;
        }
        assert!(Instant::now() < deadline, "slow_loris_closed never counted: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
}

#[test]
fn push_timeout_is_retryable_not_a_permanent_late_point() {
    let (hmm, trips) = world();
    // One worker whose every command stalls far past the push deadline,
    // behind a single-slot queue: the third concurrent push must hit the
    // engine's push_timeout_s and come back as Busy(PushTimeout).
    let stalls = FaultPlan {
        seed: 0x051A_11ED,
        stall_per_mille: 1000,
        stall: Duration::from_millis(300),
        ..FaultPlan::default()
    };
    let cfg = ServeConfig::default()
        .stream(
            StreamOptions::with_threads(1)
                .idle_timeout_s(0.0)
                .queue_capacity(1)
                .push_timeout_s(0.05),
        )
        .faults(stalls);
    let server = Server::start(hmm.clone(), cfg).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), 1).expect("connect");
    client.open(1).expect("open");
    let points = &trips[0].points[..4];
    client.push_wait(1, points[0]).expect("first point acked on a quiet engine");
    // Stage the jam deterministically: the worker stalls on the second
    // point, the third fills the one-slot queue, so delivering the fourth
    // must hit push_timeout_s. The sleeps only widen the margins (the
    // stall is 6x the push deadline).
    client.push(1, points[1]).expect("send");
    std::thread::sleep(Duration::from_millis(50));
    client.push(1, points[2]).expect("send");
    std::thread::sleep(Duration::from_millis(50));
    client.push(1, points[3]).expect("send");
    let mut acked = 0usize;
    let mut timeouts = 0usize;
    while acked < 2 || timeouts == 0 {
        match client.recv_reply().expect("reply") {
            Reply::Ack { .. } => acked += 1,
            Reply::Busy { code, .. } => {
                assert_eq!(code, BusyCode::PushTimeout, "only the engine deadline fires here");
                timeouts += 1;
            }
            r => panic!("a timed-out push must surface as Busy, got {r:?}"),
        }
    }
    assert_eq!((acked, timeouts), (2, 1), "two stalled acks and one engine push timeout");
    // A PushTimeout is documented as retryable: with the jam cleared,
    // resending the *identical* point must be acked, never refused as a
    // LatePoint — the admission watermark rolled back when the engine
    // refused delivery.
    match client.push_wait(1, points[3]) {
        Ok(Reply::Ack { .. }) => {}
        r => panic!("retry of a timed-out push must succeed, got {r:?}"),
    }
    let (count, result) = client.finalize(1).expect("finalize");
    assert_eq!(count as usize, points.len(), "every point, including the retried one, decoded");
    let prefix = Trajectory { points: points.to_vec() };
    assert_eq!(result, hmm.match_trajectory(&prefix), "retry path stays bitwise-identical");
    server.stop();
}

#[test]
fn busy_window_is_typed_backpressure_not_silent_drop() {
    let (hmm, trips) = world();
    // A server-side inflight window of 1: the second unacked push must be
    // answered with a typed Busy(Window), and after draining the ack the
    // stream resumes exactly where it left off.
    let server = Server::start(hmm.clone(), base_cfg().inflight_window(1)).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), 11).expect("connect");
    client.open(1).expect("open");
    let t = &trips[2];
    assert!(t.len() >= 3, "tiny corpus trip long enough to overfill a 1-window");
    client.push(1, t.points[0]).expect("first push");
    client.push(1, t.points[1]).expect("second push");
    let mut saw_busy = false;
    let mut acked = 0usize;
    while acked < 2 {
        match client.recv_reply().expect("reply") {
            Reply::Ack { .. } => acked += 1,
            Reply::Busy { code, .. } => {
                assert_eq!(code, BusyCode::Window);
                saw_busy = true;
                // Retry the refused point once its predecessor is acked.
                while acked < 1 {
                    match client.recv_reply().expect("reply") {
                        Reply::Ack { .. } => acked += 1,
                        r => panic!("expected ack before retry, got {r:?}"),
                    }
                }
                client.push(1, t.points[1]).expect("retry");
            }
            r => panic!("unexpected reply: {r:?}"),
        }
    }
    // The window refusal is typed and non-destructive: the rest of the
    // trip (strictly in order) still decodes bit-exact.
    for &p in &t.points[2..] {
        client.push_wait(1, p).expect("in-window push");
    }
    let (points, result) = client.finalize(1).expect("finalize");
    assert_eq!(points as usize, t.len());
    assert_eq!(result, hmm.match_trajectory(t));
    if saw_busy {
        assert!(server.stats().busy >= 1, "busy counter must record the refusal");
    }
    server.stop();
}

#[test]
fn non_finite_points_are_refused_and_the_session_continues() {
    let (hmm, trips) = world();
    let server = Server::start(hmm.clone(), base_cfg()).expect("server");
    let tenant = 12;
    let mut client = ServeClient::connect(server.local_addr(), tenant).expect("connect");
    client.open(1).expect("open");
    let t = &trips[0];
    let half = t.len() / 2;
    client.stream_points(1, &t.points[..half], 4).expect("stream first half");

    // NaN, +inf and -inf in each of x, y and t are refused before
    // admission. An admitted NaN `t` would pass every later `t <= last_t`
    // check, so the session would take any timestamp, earlier ones too.
    let next = t.points[half];
    let bad_points: Vec<GpsPoint> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .into_iter()
        .flat_map(|bad| {
            [
                GpsPoint { pos: Vec2::new(bad, next.pos.y), ..next },
                GpsPoint { pos: Vec2::new(next.pos.x, bad), ..next },
                GpsPoint { t: bad, ..next },
            ]
        })
        .collect();
    for &p in &bad_points {
        assert_eq!(
            client.push_wait(1, p),
            Err(ClientError::Refused { code: RefuseCode::BadPayload, detail: 0 }),
            "{p:?} must be refused"
        );
    }
    // The late-point guard still holds, and the next valid point is acked.
    assert_eq!(
        client.push_wait(1, t.points[0]),
        Err(ClientError::Refused { code: RefuseCode::LatePoint, detail: 0 })
    );
    assert!(matches!(client.push_wait(1, next), Ok(Reply::Ack { .. })));
    client.stream_points(1, &t.points[half + 1..], 4).expect("stream second half");
    let (points, result) = client.finalize(1).expect("finalize");
    assert_eq!(points as usize, t.len());
    assert_eq!(
        result,
        hmm.match_trajectory(t),
        "the final is the offline decode of the valid points"
    );

    let stats = server.stats();
    let row = stats.tenant(tenant).expect("tenant row");
    assert_eq!(row.refused, bad_points.len() as u64 + 1, "nine non-finite points and one late one");
    assert_eq!(row.points, t.len() as u64, "no refused point was admitted");
    server.stop();
}

#[test]
fn idle_round_trips_never_wait_out_the_pump_backstop() {
    let (nearest, trips) = nearest_world();
    let server = Server::start(nearest, base_cfg()).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), 1).expect("connect");
    client.open(1).expect("open");
    // One long session over the corpus's positions, re-timed to increase.
    let pool: Vec<GpsPoint> = trips.iter().flat_map(|t| t.points.iter().copied()).collect();
    let mut rtts: Vec<Duration> = (0..200)
        .map(|i| {
            let p = GpsPoint { t: f64::from(i), ..pool[i as usize % pool.len()] };
            let t0 = Instant::now();
            assert!(matches!(client.push_wait(1, p), Ok(Reply::Ack { .. })));
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    // A producer that does not ring leaves its hand-off to the backstop,
    // and every round trip then takes about that long.
    assert!(median < PUMP_BACKSTOP / 4, "median round trip {median:?}: a ring was missed");
    server.stop();
}

#[test]
fn stop_with_an_idle_connection_returns_promptly() {
    let (nearest, trips) = nearest_world();
    let server = Server::start(nearest, base_cfg()).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), 1).expect("connect");
    client.open(1).expect("open");
    // Delivering this ack leaves the pump freshly blocked on its doorbell,
    // so a stop that did not ring it would wait out most of the backstop.
    client.push_wait(1, trips[0].points[0]).expect("acked");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let t0 = Instant::now();
        server.stop();
        done_tx.send(t0.elapsed()).expect("the test is waiting");
    });
    // A blocked accept thread that is never woken would hang `stop`.
    let took = done_rx.recv_timeout(Duration::from_secs(10)).expect("stop returned");
    stopper.join().expect("stop did not panic");
    assert!(took < PUMP_BACKSTOP / 2, "stop took {took:?}");
    drop(client);
}

#[test]
fn injected_worker_panics_behind_the_socket_recover_at_once() {
    FaultPlan::silence_injected_panics();
    let (hmm, trips) = world();
    let trips = &trips[..3];
    let offline: Vec<_> = trips.iter().map(|t| hmm.match_trajectory(t)).collect();
    // Seed 17 251 draws its first three panics on the 2nd, 3rd and 4th
    // worker commands, so all three fire early in the run.
    let cfg = base_cfg().faults(FaultPlan::panics(17_251, 20, 3));
    let server = Server::start(hmm.clone(), cfg).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), 9).expect("connect");
    let t0 = Instant::now();
    for (i, (t, want)) in trips.iter().zip(&offline).enumerate() {
        let session = i as u64;
        client.open(session).expect("open");
        for (k, &p) in t.points.iter().enumerate() {
            // The journal replay after a panic re-emits updates the client
            // already had; each ack must still carry its own point's index.
            match client.push_wait(session, p) {
                Ok(Reply::Ack { seq, .. }) => assert_eq!(seq, k as u64, "trip {i} point {k}"),
                other => panic!("trip {i} point {k} not acked: {other:?}"),
            }
        }
        let (points, result) = client.finalize(session).expect("finalize");
        assert_eq!(points as usize, t.len());
        assert_eq!(&result, want, "trip {i} diverged from the offline decode");
    }
    // Each dead worker rings on exit, so recovery starts at once; waiting
    // for the backstop instead would cost one backstop per panic.
    let took = t0.elapsed();
    assert!(took < 2 * PUMP_BACKSTOP, "three recoveries took {took:?}");
    server.stop();
}
