//! Property tests for the binary artifact store:
//!
//! * **Section round-trip** — packing an arbitrary generated network, its
//!   distance table, random weight blobs and an embedding matrix into an
//!   image and decoding it back yields every section bitwise-identical;
//! * **Served table ≡ built table** — the distance table served zero-copy
//!   from the image answers every node-pair query identically to the
//!   freshly built one (same `Some`/`None` shape, same distance bits);
//! * **Corruption rejection** — flipping any single seeded bit anywhere in
//!   the image is caught: either `Artifact::decode` fails (header bytes)
//!   or materializing the owning section fails (payload bytes, lazy CRC);
//! * **Truncation rejection** — every strict prefix of an image, and any
//!   extension of it, is rejected at decode; never a panic;
//! * **Crafted values** — a table section or shard range whose bound or
//!   distances break the `Some`-iff-within-δ contract is refused even when
//!   every CRC has been recomputed to match.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trmma::core::snapshot::crc32;
use trmma::core::{Artifact, ArtifactBuilder, ArtifactError, SectionKind};
use trmma::nn::Matrix;
use trmma::roadnet::{
    generate_city, DistTable, GridCut, NetworkConfig, NodeId, RoadNetwork, ShardPlan,
    ShardedNetwork,
};

/// Generates a small city from a seed, like `props_snapshot.rs`.
fn arbitrary_net(net_seed: u64) -> Arc<RoadNetwork> {
    let side = 6 + (net_seed % 3) as usize; // 6x6 .. 8x8 grids
    Arc::new(generate_city(&NetworkConfig::with_size(side, side, net_seed)))
}

/// Everything that went into an image, kept for bitwise comparison.
struct World {
    net: Arc<RoadNetwork>,
    table: DistTable,
    params: Vec<(String, Vec<u8>)>,
    embeddings: Matrix,
    image: Vec<u8>,
}

/// Packs a full four-section artifact from seeds: the generated network,
/// its distance table at `delta`, 1–3 random weight blobs (one of them
/// possibly empty) and a random embedding matrix with one row per
/// segment.
fn arbitrary_world(net_seed: u64, blob_seed: u64, delta: f64) -> World {
    let net = arbitrary_net(net_seed);
    let table = DistTable::build(&net, delta);
    let mut rng = StdRng::seed_from_u64(blob_seed);
    let mut params = Vec::new();
    for i in 0..1 + (blob_seed % 3) as usize {
        let len = if i == 0 { rng.gen_range(0..300) } else { rng.gen_range(1..300) };
        #[allow(clippy::cast_possible_truncation)]
        let blob: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        params.push((format!("w{i}"), blob));
    }
    let cols = 4 + (blob_seed % 5) as usize;
    let data: Vec<f64> = (0..net.num_segments() * cols).map(|_| rng.gen::<f64>() - 0.5).collect();
    let embeddings = Matrix::from_vec(net.num_segments(), cols, data);
    let mut b = ArtifactBuilder::new();
    b.graph(&net);
    b.dist_table(&table);
    for (name, blob) in &params {
        b.params(name, blob);
    }
    b.embeddings(&embeddings);
    let image = b.finish();
    World { net, table, params, embeddings, image }
}

/// Serves every section of a decoded artifact, propagating the first
/// error. This is the "startup path" a corrupted payload byte must fail.
fn materialize(art: &Artifact) -> Result<(), ArtifactError> {
    art.graph()?;
    art.dist_table()?;
    art.embeddings()?;
    for name in art.param_names()? {
        art.params_blob(&name)?;
    }
    Ok(())
}

fn assert_same_network(a: &RoadNetwork, b: &RoadNetwork) {
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.num_segments(), b.num_segments());
    for i in 0..a.num_nodes() {
        #[allow(clippy::cast_possible_truncation)]
        let id = NodeId(i as u32);
        let (p, q) = (a.node_pos(id), b.node_pos(id));
        assert_eq!(p.x.to_bits(), q.x.to_bits(), "node {i} x differs");
        assert_eq!(p.y.to_bits(), q.y.to_bits(), "node {i} y differs");
    }
    for (i, (s, t)) in a.segments().iter().zip(b.segments()).enumerate() {
        assert_eq!((s.from, s.to, s.class), (t.from, t.to, t.class), "segment {i} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every section survives the encode/decode round trip bitwise.
    #[test]
    fn every_section_round_trips_on_arbitrary_nets(
        net_seed in 0u64..1_000,
        blob_seed in 0u64..1_000,
        delta in 300.0f64..4_000.0,
    ) {
        let w = arbitrary_world(net_seed, blob_seed, delta);
        let art = Artifact::decode(w.image.clone()).expect("built image decodes");

        assert_same_network(&w.net, &art.graph().expect("graph section serves"));

        let loaded = art.dist_table().expect("dist table section serves");
        prop_assert_eq!(loaded.len(), w.table.len());
        prop_assert_eq!(loaded.delta().to_bits(), w.table.delta().to_bits());
        prop_assert_eq!(loaded.records(), w.table.records());

        let emb = art.embeddings().expect("embeddings section serves");
        prop_assert_eq!(emb.shape(), w.embeddings.shape());
        for (a, b) in emb.data().iter().zip(w.embeddings.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let names = art.param_names().expect("params section serves");
        let want: Vec<String> = w.params.iter().map(|(n, _)| n.clone()).collect();
        prop_assert_eq!(names, want);
        for (name, blob) in &w.params {
            prop_assert_eq!(art.params_blob(name).expect("blob serves"), &blob[..]);
        }
    }

    /// The zero-copy table answers every node-pair query exactly like the
    /// freshly built one — same hit/miss shape, same distance bits. This
    /// is the correctness bar behind the cold-start benchmark's
    /// `identical_to_built` column.
    #[test]
    fn loaded_dist_table_answers_identically_to_built(
        net_seed in 0u64..1_000,
        delta in 300.0f64..4_000.0,
    ) {
        let net = arbitrary_net(net_seed);
        let built = DistTable::build(&net, delta);
        let mut b = ArtifactBuilder::new();
        b.dist_table(&built);
        let art = Artifact::decode(b.finish()).expect("image decodes");
        let loaded = art.dist_table().expect("table serves");
        prop_assert_eq!(loaded.len(), built.len());
        #[allow(clippy::cast_possible_truncation)]
        let n = net.num_nodes() as u32;
        for s in 0..n {
            for d in 0..n {
                let (a, b) = (built.query(NodeId(s), NodeId(d)), loaded.query(NodeId(s), NodeId(d)));
                prop_assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "pair ({}, {}) diverged: built {:?} vs loaded {:?}",
                    s, d, a, b
                );
            }
        }
    }

    /// No flipped bit goes unnoticed: header bytes fail `decode`, payload
    /// bytes fail the accessor that owns the section (lazy per-section
    /// CRC). Either way the corruption never reaches a caller silently.
    #[test]
    fn any_seeded_bit_flip_is_rejected(
        net_seed in 0u64..1_000,
        blob_seed in 0u64..1_000,
        corrupt_seed in 0u64..1_000,
    ) {
        let w = arbitrary_world(net_seed, blob_seed, 1_500.0);
        let mut rng = StdRng::seed_from_u64(corrupt_seed);
        for _ in 0..16 {
            let pos = rng.gen_range(0..w.image.len());
            let bit = 1u8 << rng.gen_range(0..8u8);
            let mut bad = w.image.clone();
            bad[pos] ^= bit;
            let caught = match Artifact::decode(bad) {
                Err(_) => true,
                Ok(art) => materialize(&art).is_err(),
            };
            prop_assert!(caught, "flip of bit {bit:#04x} at byte {pos} went unnoticed");
        }
    }

    /// Every strict prefix — and any extension — of an image is rejected
    /// at decode, with an error rather than a panic.
    #[test]
    fn truncation_and_padding_are_rejected(
        net_seed in 0u64..1_000,
        blob_seed in 0u64..1_000,
        cut_seed in 0u64..1_000,
    ) {
        let w = arbitrary_world(net_seed, blob_seed, 1_500.0);
        let mut rng = StdRng::seed_from_u64(cut_seed);
        let mut cuts = vec![0, 1, w.image.len() - 1];
        cuts.extend((0..8).map(|_| rng.gen_range(0..w.image.len())));
        for cut in cuts {
            prop_assert!(
                Artifact::decode(w.image[..cut].to_vec()).is_err(),
                "truncation to {cut} of {} bytes accepted",
                w.image.len()
            );
        }
        let mut padded = w.image.clone();
        padded.push(0);
        prop_assert!(Artifact::decode(padded).is_err(), "trailing byte accepted");
    }
}

fn u64_at(image: &[u8], at: usize) -> usize {
    usize::try_from(u64::from_le_bytes(image[at..at + 8].try_into().unwrap())).unwrap()
}

fn put_u32_at(image: &mut [u8], at: usize, v: u32) {
    image[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes every section CRC and then the header CRC, as the maker of a
/// crafted image would.
fn reseal(image: &mut [u8]) {
    let n = usize::from(u16::from_le_bytes([image[6], image[7]]));
    for i in 0..n {
        let entry = 16 + i * 24;
        let (off, len) = (u64_at(image, entry + 4), u64_at(image, entry + 12));
        let crc = crc32(&image[off..off + len]);
        put_u32_at(image, entry + 20, crc);
    }
    let header = 16 + n * 24;
    let crc = crc32(&image[..header]);
    put_u32_at(image, header, crc);
}

/// Where a shards section starting at `off` keeps its records: the byte
/// offset of each range (every shard's, then the overlay's) with its
/// record count, and the offset of the metadata CRC.
fn shard_ranges(image: &[u8], off: usize) -> (Vec<(usize, usize)>, usize) {
    let num_shards = u64_at(image, off + 16 + 4 * u64_at(image, off + 8));
    let dir = off + 24 + 4 * u64_at(image, off + 8);
    let meta_end = dir + 12 * (num_shards + 1);
    let mut at = meta_end + 4;
    let ranges = (0..=num_shards)
        .map(|i| {
            let count = u64_at(image, dir + 12 * i);
            at += count * 16;
            (at - count * 16, count)
        })
        .collect();
    (ranges, meta_end)
}

/// [`reseal`] after recomputing a shards section's per-range CRCs and its
/// metadata CRC.
fn reseal_shards(image: &mut [u8], off: usize) {
    let (ranges, meta_end) = shard_ranges(image, off);
    let dir = meta_end - 12 * ranges.len();
    for (i, (at, count)) in ranges.into_iter().enumerate() {
        let crc = crc32(&image[at..at + count * 16]);
        put_u32_at(image, dir + 12 * i + 8, crc);
    }
    let crc = crc32(&image[off..meta_end]);
    put_u32_at(image, meta_end, crc);
    reseal(image);
}

/// A NaN or negative bound, and any distance that is NaN, negative or
/// above the bound, is refused on a table section and on a shard range,
/// although every CRC matches — and the genuine image still loads.
#[test]
fn crafted_bounds_and_distances_are_rejected_despite_valid_crcs() {
    let net = Arc::new(generate_city(&NetworkConfig::with_size(6, 6, 29)));
    let delta = 600.0;
    let plan = ShardPlan::new(&net, &GridCut { tiles_x: 2, tiles_y: 2, seed: 9 });
    let mut b = ArtifactBuilder::new();
    b.dist_table(&DistTable::build(&net, delta));
    b.shards(&ShardedNetwork::build(Arc::clone(&net), plan, delta));
    let image = b.finish();
    let art = Artifact::decode(image.clone()).unwrap();
    let offset = |kind| art.sections().iter().find(|s| s.kind == kind as u16).unwrap().offset;
    let (table, shards) = (offset(SectionKind::DistTable), offset(SectionKind::Shards));

    // The resealers reproduce a genuine image byte for byte, and it loads.
    let mut same = image.clone();
    reseal_shards(&mut same, shards);
    assert_eq!(same, image);
    assert!(art.dist_table().is_ok());
    assert!(art.sharded_network(Arc::clone(&net)).is_ok());

    let bad_delta = ArtifactError::Malformed("dist-table bound NaN or negative");
    let bad_dist = ArtifactError::Malformed("dist-table distance outside [0, delta]");
    let victim = 1u32;
    let (ranges, _) = shard_ranges(&image, shards);
    let (first, count) = ranges[victim as usize];
    assert!(count > 0, "the victim shard must own records");
    // Where to write, as (in the table section, in the shards section):
    // the bound is the first field of both; a distance is the last 8
    // bytes of a record — the section's first, or the victim shard's.
    let bound = (table, shards);
    let dist = (table + 16 + 8, first + 8);
    for (at, value, want) in [
        (bound, f64::NAN, &bad_delta),
        (bound, -1.0, &bad_delta),
        (dist, f64::NAN, &bad_dist),
        (dist, -0.5, &bad_dist),
        (dist, delta + 0.5, &bad_dist),
    ] {
        let bits = value.to_bits().to_le_bytes();

        let mut bad = image.clone();
        bad[at.0..at.0 + 8].copy_from_slice(&bits);
        reseal(&mut bad);
        let art = Artifact::decode(bad).unwrap();
        assert_eq!(art.dist_table().unwrap_err(), *want, "table section, {value}");

        let mut bad = image.clone();
        bad[at.1..at.1 + 8].copy_from_slice(&bits);
        reseal_shards(&mut bad, shards);
        let art = Artifact::decode(bad).unwrap();
        assert_eq!(art.shard_intra_table(victim).unwrap_err(), *want, "shard range, {value}");
        assert_eq!(art.sharded_network(Arc::clone(&net)).unwrap_err(), *want);
        assert!(art.dist_table().is_ok(), "the table section is untouched");
    }
}
