//! Golden bytes of the binary formats that cross a process or disk
//! boundary: a TRMS session checkpoint, TRMP request and reply frames
//! (an ack and a `Stats` reply with one tenant row), and
//! TNN1 weight blobs of seeded (untrained) MMA and TRMMA models. A codec
//! refactor must leave every pin here passing unchanged; the artifact
//! image (TRMA) is pinned whole by `artifact::tests::golden_section_bytes_are_pinned`.

use std::sync::Arc;

use trmma::core::serve::{push_payload, Frame, FrameKind, ServeStats, TenantLoad};
use trmma::core::snapshot::crc32;
use trmma::core::{Mma, MmaConfig, SessionSnapshot, Trmma, TrmmaConfig};
use trmma::geom::Vec2;
use trmma::roadnet::SegmentId;
use trmma::roadnet::{generate_city, NetworkConfig, RoutePlanner};
use trmma::traj::snapshot::{put_matched, put_u64, put_u8};
use trmma::traj::types::{GpsPoint, MatchedPoint};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn session_snapshot_envelope_bytes_are_pinned() {
    let snap = SessionSnapshot {
        session: 42,
        matcher: "HMM".to_string(),
        seq: 17,
        last_t: 123.456,
        payload: vec![1, 2, 3, 250, 0, 9],
    };
    let bytes = snap.encode().unwrap();
    assert_eq!(hex(&bytes), "54524d53010003000000484d4d2a00000000000000110000000000000077be9f1a2fdd5e4006000000010203fa0009286ad400");
    assert_eq!(SessionSnapshot::decode(&bytes).unwrap(), snap);
}

#[test]
fn request_frame_bytes_are_pinned() {
    let p = GpsPoint { pos: Vec2::new(1.5, -2.0), t: 3.25 };
    let bytes = Frame::new(FrameKind::Push, 7, 42, push_payload(p)).encode().unwrap();
    assert_eq!(hex(&bytes), "54524d5002000207000000000000002a0000000000000018000000000000000000f83f00000000000000c00000000000000a4003706e6c");
    let open = Frame::new(FrameKind::Open, 7, 43, Vec::new()).encode().unwrap();
    assert_eq!(hex(&open), "54524d5002000107000000000000002b0000000000000000000000a3902296");
}

#[test]
fn reply_frame_bytes_are_pinned() {
    // An ack with a provisional match, laid out as the server writes it:
    // seq u64 | stable_prefix u64 | flag u8 | matched point.
    let mut payload = Vec::new();
    put_u64(&mut payload, 5);
    put_u64(&mut payload, 3);
    put_u8(&mut payload, 1);
    put_matched(&mut payload, &MatchedPoint { seg: SegmentId(11), ratio: 0.375, t: 60.5 });
    let bytes = Frame::new(FrameKind::Ack, 7, 42, payload).encode().unwrap();
    assert_eq!(hex(&bytes), "54524d5002001107000000000000002a000000000000002500000005000000000000000300000000000000010b000000000000000000d83f0000000000404e40d8dd33c8");

    // A stats reply: 20 counters u64 | tenant rows u64 | per row: tenant,
    // points, queue_full, refused, live_sessions (u64 each).
    let row = TenantLoad { tenant: 9, points: 55, queue_full: 4, refused: 1, live_sessions: 2 };
    let stats = ServeStats {
        connections: 3,
        frames_in: 100,
        busy: 2,
        slow_loris_closed: 1,
        tenants: vec![row],
        ..Default::default()
    };
    let bytes = Frame::new(FrameKind::StatsReply, 7, 0, stats.wire_encode()).encode().unwrap();
    assert_eq!(hex(&bytes), "54524d5002001607000000000000000000000000000000d000000003000000000000006400000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000200000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000000010000000000000009000000000000003700000000000000040000000000000001000000000000000200000000000000036551e6");
    let back = Frame::decode(&bytes).unwrap();
    assert_eq!(ServeStats::wire_decode(&back.payload).unwrap(), stats);
}

#[test]
fn weight_blob_bytes_are_pinned() {
    let net = Arc::new(generate_city(&NetworkConfig::with_size(4, 4, 7)));
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let mma = Mma::new(Arc::clone(&net), planner, None, MmaConfig::small()).save_weights();
    let trmma = Trmma::new(net, TrmmaConfig::small()).save_weights();
    // Header: "TNN1" | version u32 = 1 | parameter count u32.
    assert_eq!(hex(&mma[..12]), "544e4e310100000029000000");
    assert_eq!((mma.len(), crc32(&mma)), (112_028, 0xb6ec_dd76));
    assert_eq!(hex(&trmma[..12]), "544e4e310100000034000000");
    assert_eq!((trmma.len(), crc32(&trmma)), (142_140, 0xfe78_dbae));
}
