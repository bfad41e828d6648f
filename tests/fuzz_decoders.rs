//! Seeded mutation fuzzing of every decoder that reads bytes from outside
//! the process: session checkpoints (`SessionSnapshot::decode`), wire
//! frames (`Frame::decode`, `Reply::parse`, `ServeStats::wire_decode`),
//! artifact images (`Artifact::decode` and every accessor), weight blobs
//! (`Mma` / `Trmma::load_weights`) and each matcher's `restore_session`.
//!
//! Each target starts from valid encodings and applies one to four random
//! mutations (bit flips, byte sets, truncations, inserts, length-field
//! bumps); for checksummed formats half the inputs get their checksums
//! recomputed afterwards, so the parsers behind the CRC see the damage
//! too. Every decode must return a typed `Ok` or `Err`, never panic, and
//! its peak heap growth (a counting global allocator, per thread) must
//! stay within [`ALLOC_PER_BYTE`] times the input length plus
//! [`ALLOC_SLACK`]. Seed and budget are fixed, so a run is reproducible;
//! inputs that once failed are kept in [`REGRESSIONS`] and checked first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trmma::baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher, NearestMatcher};
use trmma::core::serve::{push_payload, Frame, FrameKind, Reply, ServeStats, TenantLoad, VERSION};
use trmma::core::snapshot::crc32;
use trmma::core::{Artifact, ArtifactBuilder, Mma, MmaConfig, SessionSnapshot, Trmma, TrmmaConfig};
use trmma::nn::Matrix;
use trmma::roadnet::{
    generate_city, DistTable, GridCut, NetworkConfig, RoadNetwork, RoutePlanner, ShardPlan,
    ShardedNetwork,
};
use trmma::traj::gen::{generate_trajectory, sparsify, TrajConfig};
use trmma::traj::snapshot::{put_match_result, put_matched, put_u16, put_u32, put_u64, put_u8};
use trmma::traj::{MapMatcher, OnlineMatcher, Sample};

const SEED: u64 = 0x5EED_F022;
/// Mutated inputs per target and seed image.
const ITERS: usize = 150;
/// Heap bytes a decoder may hold at its peak per input byte…
const ALLOC_PER_BYTE: usize = 4;
/// …plus this much regardless of the input.
const ALLOC_SLACK: usize = 16 << 10;

/// Inputs that once panicked or over-allocated, as `(target, hex)`;
/// each target decodes its own before it fuzzes.
const REGRESSIONS: &[(&str, &str)] = &[];

fn regressions(target: &str) -> impl Iterator<Item = Vec<u8>> + '_ {
    REGRESSIONS.iter().filter(move |(t, _)| *t == target).map(|(_, h)| unhex(h))
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The system allocator, keeping per-thread live and peak byte counts.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its caller's arguments unchanged to the
// `System` allocator, so the caller's guarantees are the ones `System`
// needs, and returns `System`'s result; the counting beside it touches
// only thread-local `Cell`s, never allocates, and cannot unwind.
#[allow(clippy::cast_possible_wrap)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// Decodes `input` once: fails the test on a panic or on a peak heap
/// growth past the bound, naming the target and the input.
fn check<T, E: Debug>(target: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> Result<T, E>) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(input).map(drop)));
    #[allow(clippy::cast_sign_loss)]
    let peak = (PEAK.with(Cell::get) - start).max(0) as usize;
    assert!(outcome.is_ok(), "{target} panicked on {}", hex(input));
    assert!(
        peak <= ALLOC_PER_BYTE * input.len() + ALLOC_SLACK,
        "{target}: peak {peak} heap bytes for a {}-byte input {}",
        input.len(),
        hex(input)
    );
}

/// One to four random mutations of `seed`.
fn mutate(rng: &mut StdRng, seed: &[u8]) -> Vec<u8> {
    let mut b = seed.to_vec();
    for _ in 0..rng.gen_range(1..5) {
        let at = |rng: &mut StdRng, len: usize| rng.gen_range(0..len.max(1));
        match rng.gen_range(0..5) {
            0 if !b.is_empty() => {
                let i = at(rng, b.len());
                b[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
            1 if !b.is_empty() => {
                let i = at(rng, b.len());
                b[i] = [0u8, 1, 0x7f, 0x80, 0xff][rng.gen_range(0..5usize)];
            }
            2 => b.truncate(rng.gen_range(0..b.len() + 1)),
            3 => {
                let i = rng.gen_range(0..b.len() + 1);
                let n = rng.gen_range(1..9);
                b.splice(i..i, (0..n).map(|_| rng.gen::<u32>() as u8));
            }
            _ if b.len() >= 4 => {
                // Treat four bytes as a little-endian length and bump it.
                let i = at(rng, b.len() - 3);
                let v = u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
                let delta = [1u32, u32::MAX, 8, 1 << 16, 1 << 31][rng.gen_range(0..5usize)];
                b[i..i + 4].copy_from_slice(&v.wrapping_add(delta).to_le_bytes());
            }
            _ => {}
        }
    }
    b
}

/// Rewrites the trailing CRC-32 of a TRMS / TRMP envelope.
fn reseal(mut b: Vec<u8>) -> Vec<u8> {
    if let Some(n) = b.len().checked_sub(4) {
        let crc = crc32(&b[..n]);
        b[n..].copy_from_slice(&crc.to_le_bytes());
    }
    b
}

/// Mutates a trailing-CRC envelope, resealing every other input.
fn mutate_sealed(rng: &mut StdRng, seed: &[u8]) -> Vec<u8> {
    let b = mutate(rng, seed);
    if rng.gen::<bool>() {
        reseal(b)
    } else {
        b
    }
}

/// Lays out an artifact image with every checksum right — the format
/// `ArtifactBuilder::finish` writes — around raw section payloads.
fn artifact_image(sections: &[(u16, Vec<u8>)]) -> Vec<u8> {
    let header_len = 16 + sections.len() * 24 + 4;
    let total = header_len + sections.iter().map(|(_, p)| p.len()).sum::<usize>();
    let mut out = b"TRMA".to_vec();
    put_u16(&mut out, 1);
    put_u16(&mut out, sections.len() as u16);
    put_u64(&mut out, total as u64);
    let mut offset = header_len;
    for (kind, payload) in sections {
        put_u16(&mut out, *kind);
        put_u16(&mut out, 0);
        put_u64(&mut out, offset as u64);
        put_u64(&mut out, payload.len() as u64);
        put_u32(&mut out, crc32(payload));
        offset += payload.len();
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    for (_, payload) in sections {
        out.extend_from_slice(payload);
    }
    out
}

fn world() -> (Arc<RoadNetwork>, Vec<Sample>) {
    let net = Arc::new(generate_city(&NetworkConfig::with_size(6, 6, 29)));
    let cfg = TrajConfig { min_points: 8, ..TrajConfig::default() };
    let mut rng = StdRng::seed_from_u64(7);
    let mut samples = Vec::new();
    while samples.len() < 3 {
        if let Some(raw) = generate_trajectory(&net, &cfg, &mut rng) {
            samples.push(sparsify(&raw, 0.3, &mut rng));
        }
    }
    (net, samples)
}

/// Session payloads of `matcher` after a few points of each sample.
fn session_payloads<M: OnlineMatcher>(matcher: &M, samples: &[Sample]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for s in samples {
        let mut scratch = matcher.make_scratch();
        let mut session = matcher.begin_session();
        for (i, &p) in s.sparse.points.iter().enumerate() {
            matcher.push_point(&mut scratch, &mut session, p);
            if i == 1 || i + 1 == s.sparse.len() {
                let mut payload = Vec::new();
                matcher.snapshot_session(&session, &mut payload);
                out.push(payload);
            }
        }
    }
    out
}

fn fuzz_restore<M: OnlineMatcher>(rng: &mut StdRng, matcher: &M, samples: &[Sample]) {
    let target = format!("{}::restore_session", M::NAME);
    for input in regressions(&target) {
        check(&target, &input, |b| matcher.restore_session(b));
    }
    for seed in session_payloads(matcher, samples) {
        check(&target, &seed, |b| matcher.restore_session(b));
        for _ in 0..ITERS {
            check(&target, &mutate(rng, &seed), |b| matcher.restore_session(b));
        }
    }
}

/// One reply frame of every kind, laid out as the server writes them.
fn reply_frames(hmm: &HmmMatcher, sample: &Sample, snapshot: &[u8]) -> Vec<Frame> {
    let result = hmm.match_trajectory(&sample.sparse);
    let mut fin = Vec::new();
    put_u64(&mut fin, sample.sparse.len() as u64);
    put_match_result(&mut fin, &result);
    let mut ack = Vec::new();
    put_u64(&mut ack, 5);
    put_u64(&mut ack, 3);
    put_u8(&mut ack, 1);
    put_matched(&mut ack, &result.matched[0]);
    let mut stats = ServeStats { connections: 3, frames_in: 100, busy: 2, ..Default::default() };
    stats.tenants.push(TenantLoad { tenant: 9, points: 55, queue_full: 4, ..Default::default() });
    stats.tenants.push(TenantLoad { tenant: 11, refused: 1, ..Default::default() });
    let mut refused = vec![3];
    put_u32(&mut refused, 9);
    let mut done = Vec::new();
    put_u64(&mut done, 2);
    [
        (FrameKind::Opened, Vec::new()),
        (FrameKind::Ack, ack),
        (FrameKind::Final, fin),
        (FrameKind::SnapshotData, snapshot.to_vec()),
        (FrameKind::SnapshotDone, done),
        (FrameKind::Restored, Vec::new()),
        (FrameKind::StatsReply, stats.wire_encode()),
        (FrameKind::Busy, vec![1]),
        (FrameKind::Refused, refused),
    ]
    .into_iter()
    .map(|(kind, payload)| Frame::new(kind, 7, 42, payload))
    .collect()
}

#[test]
fn every_decoder_survives_mutated_input() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (net, samples) = world();
    let planner = Arc::new(RoutePlanner::untrained(&net));
    let cfg = HmmConfig::default();

    // Matcher session payloads, and TRMS envelopes around them.
    let nearest = NearestMatcher::new(net.clone(), planner.clone());
    let hmm = HmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
    let fmm = FmmMatcher::new(net.clone(), planner.clone(), cfg.clone());
    let lhmm = LhmmMatcher::fit(net.clone(), planner.clone(), cfg, &samples);
    let mma = Mma::new(net.clone(), planner.clone(), None, MmaConfig::small());
    fuzz_restore(&mut rng, &nearest, &samples);
    fuzz_restore(&mut rng, &hmm, &samples);
    fuzz_restore(&mut rng, &fmm, &samples);
    fuzz_restore(&mut rng, &lhmm, &samples);
    fuzz_restore(&mut rng, &mma, &samples);

    let envelopes: Vec<Vec<u8>> = session_payloads(&hmm, &samples)
        .into_iter()
        .chain(session_payloads(&mma, &samples))
        .enumerate()
        .map(|(i, payload)| {
            let name = if i % 2 == 0 { "HMM" } else { "MMA" };
            let snap = SessionSnapshot {
                session: i as u64,
                matcher: name.into(),
                seq: 3,
                last_t: 9.5,
                payload,
            };
            snap.encode().unwrap()
        })
        .collect();
    for input in regressions("SessionSnapshot::decode") {
        check("SessionSnapshot::decode", &input, SessionSnapshot::decode);
    }
    for seed in &envelopes {
        for _ in 0..ITERS {
            check(
                "SessionSnapshot::decode",
                &mutate_sealed(&mut rng, seed),
                SessionSnapshot::decode,
            );
        }
    }

    // Wire frames, their reply payloads and the stats codec.
    let mut frames = reply_frames(&hmm, &samples[0], &envelopes[0]);
    let p = samples[0].sparse.points[0];
    frames.push(Frame::new(FrameKind::Push, 7, 42, push_payload(p)));
    frames.push(Frame::new(FrameKind::Open, 7, 43, Vec::new()));
    for input in regressions("Frame::decode") {
        check("Frame::decode", &input, Frame::decode);
    }
    for input in regressions("ServeStats::wire_decode") {
        check("ServeStats::wire_decode", &input, ServeStats::wire_decode);
    }
    for frame in &frames {
        let bytes = frame.encode().unwrap();
        for _ in 0..ITERS {
            check("Frame::decode", &mutate_sealed(&mut rng, &bytes), Frame::decode);
            let payload = mutate(&mut rng, &frame.payload);
            let kind = if rng.gen_range(0..8) == 0 { rng.gen::<u32>() as u8 } else { frame.kind };
            check("Reply::parse", &payload, |b| {
                Reply::parse(&Frame {
                    version: VERSION,
                    kind,
                    tenant: 7,
                    session: 42,
                    payload: b.to_vec(),
                })
            });
        }
    }
    let stats = frames.iter().find(|f| f.kind == FrameKind::StatsReply as u8).unwrap();
    for _ in 0..ITERS * 4 {
        check(
            "ServeStats::wire_decode",
            &mutate(&mut rng, &stats.payload),
            ServeStats::wire_decode,
        );
    }

    // Weight blobs of small models.
    let small = Arc::new(generate_city(&NetworkConfig::with_size(3, 3, 5)));
    let tiny = MmaConfig {
        d0: 4,
        d1: 4,
        d2: 4,
        d3: 4,
        ffn: 4,
        n_heads: 1,
        n_layers: 1,
        ..MmaConfig::small()
    };
    let mut mma_small =
        Mma::new(small.clone(), Arc::new(RoutePlanner::untrained(&small)), None, tiny);
    let tcfg =
        TrmmaConfig { dh: 4, d_emb: 4, ffn: 4, n_heads: 1, n_layers: 1, ..TrmmaConfig::small() };
    let mut trmma_small = Trmma::new(small, tcfg);
    let (mma_blob, trmma_blob) = (mma_small.save_weights(), trmma_small.save_weights());
    for input in regressions("Mma::load_weights") {
        check("Mma::load_weights", &input, |b| mma_small.load_weights(b));
    }
    for input in regressions("Trmma::load_weights") {
        check("Trmma::load_weights", &input, |b| trmma_small.load_weights(b));
    }
    for _ in 0..ITERS * 2 {
        check("Mma::load_weights", &mutate(&mut rng, &mma_blob), |b| mma_small.load_weights(b));
        check("Trmma::load_weights", &mutate(&mut rng, &trmma_blob), |b| {
            trmma_small.load_weights(b)
        });
    }

    // Artifact images: whole-image mutations, then section payload
    // mutations behind correct checksums.
    let emb = Matrix::from_vec(
        net.num_segments(),
        2,
        (0..net.num_segments() * 2).map(|i| i as f64).collect(),
    );
    let plan = ShardPlan::new(&net, &GridCut { tiles_x: 2, tiles_y: 2, seed: 9 });
    let mut b = ArtifactBuilder::new();
    b.graph(&net);
    b.dist_table(&DistTable::build(&net, 600.0));
    b.embeddings(&emb);
    b.shards(&ShardedNetwork::build(net.clone(), plan, 600.0));
    b.params("mma", &mma_blob);
    b.params("trmma", &trmma_blob[..64]);
    let image = b.finish();
    let art = Artifact::decode(image.clone()).unwrap();
    let sections: Vec<(u16, Vec<u8>)> = art
        .sections()
        .iter()
        .map(|s| (s.kind, image[s.offset..s.offset + s.len].to_vec()))
        .collect();
    let serve_all = |b: &[u8]| -> Result<(), trmma::core::ArtifactError> {
        let art = Artifact::decode(b.to_vec())?;
        let results = [
            art.graph().map(drop),
            art.dist_table().map(drop),
            art.embeddings().map(drop),
            art.shards_overlay().map(drop),
            art.sharded_network(net.clone()).map(drop),
        ];
        if let Ok(meta) = art.shards_meta() {
            for s in 0..meta.num_shards().min(64) as u32 {
                let _ = art.shard_intra_table(s);
            }
        }
        for name in art.param_names().unwrap_or_default() {
            let _ = art.params_blob(&name);
        }
        results.into_iter().collect()
    };
    check("Artifact", &image, serve_all);
    for input in regressions("Artifact") {
        check("Artifact", &input, serve_all);
    }
    for _ in 0..ITERS {
        check("Artifact", &mutate(&mut rng, &image), serve_all);
        let mut damaged = sections.clone();
        let i = rng.gen_range(0..damaged.len());
        damaged[i].1 = mutate(&mut rng, &damaged[i].1);
        check("Artifact", &artifact_image(&damaged), serve_all);
    }
}
