//! Golden bytes of the binary formats that cross a process or disk
//! boundary: a TRMS session checkpoint, TRMP request and reply frames, and
//! TNN1 weight blobs of seeded (untrained) MMA and TRMMA models. A codec
//! refactor must leave every pin here passing unchanged; the artifact
//! image (TRMA) is pinned whole by `artifact::tests::golden_section_bytes_are_pinned`.

use std::sync::Arc;

use trmma::core::serve::{push_payload, Frame, FrameKind};
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
    assert_eq!(hex(&bytes), "54524d5001000207000000000000002a0000000000000018000000000000000000f83f00000000000000c00000000000000a40ac6de5d7");
    let open = Frame::new(FrameKind::Open, 7, 43, Vec::new()).encode().unwrap();
    assert_eq!(hex(&open), "54524d5001000107000000000000002b00000000000000000000009ea9c7e0");
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
    assert_eq!(hex(&bytes), "54524d5001001107000000000000002a000000000000002500000005000000000000000300000000000000010b000000000000000000d83f0000000000404e400848364c");
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
