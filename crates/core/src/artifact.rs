//! Build-once binary artifacts: the road graph, the UBODT, trained
//! weights and node2vec embeddings as one checksummed byte image.
//!
//! Every serving process used to pay the full preparation cost at startup
//! — Dijkstra sweeps for the [`DistTable`], node2vec training for the
//! embedding table — even though none of those depend on anything but the
//! network and a seed. This module makes them **build-once**: a builder
//! packs the four artifact kinds into a single image, and a loader
//! validates the header and then serves structures *from* the image
//! without re-deriving anything. The `trmma-artifacts` CLI (bench crate)
//! wraps this with `build` / `inspect` / `verify` subcommands.
//!
//! ```text
//! magic "TRMA" | version u16 | section_count u16 | total_len u64 |
//! { kind u16 | reserved u16 | offset u64 | len u64 | crc u32 }* |
//! header_crc u32 | section bytes...
//! ```
//!
//! * all scalars are fixed-width little-endian, every `f64` travels as its
//!   IEEE-754 bit pattern — the `trmma_traj::snapshot` conventions, so
//!   loaded structures are **bitwise-identical** to freshly built ones;
//! * `total_len` must equal the byte length on disk (a concatenated or
//!   cut-short file is rejected before any section is trusted);
//! * the **header CRC** (same IEEE 802.3 [`crc32`] as session snapshots)
//!   covers magic through section table and is verified at load, so a
//!   corrupted offset can never point a reader at the wrong bytes; each
//!   **section CRC** covers that section's payload and is verified when
//!   the section is served — a process that only needs the distance
//!   table never pays to checksum the weight blobs, yet no section's
//!   bytes are ever served unverified;
//! * loading is **zero-parse**: after validation, the [`DistTable`] is
//!   served by binary search directly over the shared slab
//!   ([`DistTable::from_image`]) — a fleet of processes mapping the same
//!   artifact shares one page-cached copy instead of each re-running the
//!   Dijkstra sweeps;
//! * CRCs catch corruption, not a crafted image (its maker recomputes
//!   them), so every served table is also checked for what its queries
//!   rely on: sorted keys, a bound that is neither NaN nor negative, and
//!   every distance within `[0, delta]` ([`ArtifactError::Malformed`]
//!   otherwise).
//!
//! Section payloads (kinds in [`SectionKind`]):
//!
//! * **Graph** — `node_count u64 | (x, y f64-bits)* | seg_count u64 |
//!   (from u32, to u32, class u8)*`. Geometry and lengths are *derived*
//!   on load from the position bits (exactly what [`RoadNetwork::new`]
//!   does), so they reconstruct bit-identically without being stored.
//! * **DistTable** — `delta f64-bits | count u64 |` then `count` packed
//!   16-byte records (`src u32 | dst u32 | dist f64-bits`) strictly
//!   sorted by `(src, dst)`: the table's own [`DistTable::records`],
//!   copied verbatim.
//! * **Params** — `blob_count u32 |` then per blob a length-prefixed
//!   name and a length-prefixed [`trmma_nn::serialize`] weight blob
//!   (which carries its own magic/version/shape validation).
//! * **Embeddings** — `rows u64 | cols u64 | f64-bits*` (one node2vec
//!   vector per road segment, rows = `num_segments`).
//! * **Shards** — `delta f64-bits | node_count u64 | shard_of u32* |
//!   num_shards u64 | { record_count u64 | crc u32 }* per shard |
//!   overlay record_count u64 | overlay crc u32 | meta_crc u32` followed
//!   by each shard's packed 16-byte distance records and then the
//!   overlay's. Unlike the other kinds, shard payloads are **lazily
//!   CRC-verified per shard**: `meta_crc` guards the plan and the record
//!   directory, and each record range carries its own CRC, so serving
//!   shard 3 checksums shard 3's bytes only — a flipped byte in shard 5
//!   fails `shard_intra_table(5)` and nothing else. (The section-table
//!   CRC still covers the whole payload, so `trmma-artifacts verify`
//!   catches any flip.)
//!
//! [`crc32`]: crate::snapshot::crc32

use std::sync::Arc;

use trmma_nn::Matrix;
use trmma_roadnet::transition::DIST_RECORD_BYTES;
use trmma_roadnet::{
    DistImageError, DistTable, NodeId, RoadClass, RoadNetwork, Shard, ShardPlan, ShardedNetwork,
};
use trmma_traj::snapshot::{self, Reader, SnapshotError};

use crate::snapshot::crc32;

/// Artifact magic: "TRMA" (TRMma Artifact).
pub const MAGIC: [u8; 4] = *b"TRMA";

/// The artifact format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Bytes of one section-table entry: kind u16 | reserved u16 | offset u64
/// | len u64 | crc u32.
const ENTRY_BYTES: usize = 2 + 2 + 8 + 8 + 4;

/// Fixed header bytes before the section table: magic | version u16 |
/// section_count u16 | total_len u64.
const PREFIX_BYTES: usize = 4 + 2 + 2 + 8;

/// What a section of an artifact holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SectionKind {
    /// The packed road graph.
    Graph = 1,
    /// The bounded all-pairs distance table (FMM's UBODT).
    DistTable = 2,
    /// Named trained-weight blobs ([`trmma_nn::serialize`] format).
    Params = 3,
    /// The node2vec embedding table (one row per segment).
    Embeddings = 4,
    /// A sharded network: the shard plan, one packed intra-shard distance
    /// table per shard, and the boundary overlay table — each shard's
    /// records carry their **own** CRC so a process serving one shard
    /// verifies only that shard's bytes ([`Artifact::shard_intra_table`]).
    Shards = 5,
}

impl SectionKind {
    /// The kind for a raw tag, if known.
    #[must_use]
    pub fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            1 => Some(Self::Graph),
            2 => Some(Self::DistTable),
            3 => Some(Self::Params),
            4 => Some(Self::Embeddings),
            5 => Some(Self::Shards),
            _ => None,
        }
    }

    /// Human-readable name (used by `trmma-artifacts inspect`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Graph => "graph",
            Self::DistTable => "dist_table",
            Self::Params => "params",
            Self::Embeddings => "embeddings",
            Self::Shards => "shards",
        }
    }
}

/// Why an artifact image was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The image ended before the announced data did.
    Truncated,
    /// The image does not start with the artifact magic.
    BadMagic,
    /// The format version is not understood by this build.
    BadVersion(u16),
    /// `total_len` in the header does not equal the image's byte length.
    LengthMismatch {
        /// Length announced by the header.
        declared: u64,
        /// Actual image length.
        actual: u64,
    },
    /// The header checksum does not match the section table.
    HeaderChecksum,
    /// A section's checksum does not match its payload.
    SectionChecksum {
        /// Raw kind tag of the failing section.
        kind: u16,
    },
    /// Two sections carry the same kind.
    DuplicateSection {
        /// The duplicated kind tag.
        kind: u16,
    },
    /// One shard's record range of the shards section fails its own
    /// checksum — only that shard's accessor is refused.
    ShardChecksum {
        /// The failing shard.
        shard: u32,
    },
    /// The overlay table of the shards section fails its checksum.
    OverlayChecksum,
    /// A requested section is not present in this artifact.
    MissingSection(SectionKind),
    /// A named weight blob is not present in the params section.
    MissingParams(String),
    /// Structurally invalid section payload.
    Malformed(&'static str),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "artifact truncated"),
            Self::BadMagic => write!(f, "not a trmma artifact (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported artifact version {v}"),
            Self::LengthMismatch { declared, actual } => {
                write!(f, "artifact declares {declared} bytes but holds {actual}")
            }
            Self::HeaderChecksum => write!(f, "artifact header checksum mismatch"),
            Self::SectionChecksum { kind } => {
                write!(f, "checksum mismatch in section kind {kind}")
            }
            Self::DuplicateSection { kind } => {
                write!(f, "duplicate section kind {kind}")
            }
            Self::ShardChecksum { shard } => {
                write!(f, "checksum mismatch in shard {shard} payload")
            }
            Self::OverlayChecksum => write!(f, "checksum mismatch in shards overlay table"),
            Self::MissingSection(kind) => {
                write!(f, "artifact has no {} section", kind.name())
            }
            Self::MissingParams(name) => {
                write!(f, "artifact has no weight blob named {name:?}")
            }
            Self::Malformed(what) => write!(f, "malformed artifact: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<SnapshotError> for ArtifactError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Truncated => Self::Truncated,
            SnapshotError::Malformed(what) => Self::Malformed(what),
            // The snapshot codec's envelope-level errors cannot arise from
            // the scalar accessors used here.
            _ => Self::Malformed("unexpected codec error"),
        }
    }
}

impl From<DistImageError> for ArtifactError {
    fn from(e: DistImageError) -> Self {
        match e {
            DistImageError::OutOfBounds => Self::Malformed("dist-table records out of bounds"),
            DistImageError::Unsorted => Self::Malformed("dist-table records not sorted"),
            DistImageError::BadDelta => Self::Malformed("dist-table bound NaN or negative"),
            DistImageError::BadDistance => {
                Self::Malformed("dist-table distance outside [0, delta]")
            }
        }
    }
}

/// Accumulates sections, then serializes the artifact image.
///
/// ```
/// use trmma_core::artifact::{Artifact, ArtifactBuilder};
/// use trmma_roadnet::{generate_city, DistTable, NetworkConfig};
///
/// let net = generate_city(&NetworkConfig::with_size(4, 4, 7));
/// let table = DistTable::build(&net, 500.0);
/// let mut b = ArtifactBuilder::new();
/// b.graph(&net);
/// b.dist_table(&table);
/// let image = b.finish();
/// let art = Artifact::decode(image).unwrap();
/// let loaded = art.dist_table().unwrap();
/// assert_eq!(loaded.len(), table.len());
/// ```
#[derive(Debug, Default)]
pub struct ArtifactBuilder {
    sections: Vec<(SectionKind, Vec<u8>)>,
    params: Vec<(String, Vec<u8>)>,
}

impl ArtifactBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs the road graph.
    pub fn graph(&mut self, net: &RoadNetwork) -> &mut Self {
        let mut out = Vec::new();
        snapshot::put_usize(&mut out, net.num_nodes());
        for i in 0..net.num_nodes() {
            let p = net.node_pos(NodeId(i as u32));
            snapshot::put_f64(&mut out, p.x);
            snapshot::put_f64(&mut out, p.y);
        }
        snapshot::put_usize(&mut out, net.num_segments());
        for seg in net.segments() {
            snapshot::put_u32(&mut out, seg.from.0);
            snapshot::put_u32(&mut out, seg.to.0);
            snapshot::put_u8(&mut out, class_tag(seg.class));
        }
        self.sections.push((SectionKind::Graph, out));
        self
    }

    /// Packs a distance table: its bound, its record count and a copy of
    /// its records ([`DistTable::records`]).
    pub fn dist_table(&mut self, table: &DistTable) -> &mut Self {
        let mut out = Vec::with_capacity(16 + table.records().len());
        snapshot::put_f64(&mut out, table.delta());
        snapshot::put_usize(&mut out, table.len());
        out.extend_from_slice(table.records());
        self.sections.push((SectionKind::DistTable, out));
        self
    }

    /// Packs a sharded network: the shard plan, every intra-shard table
    /// and the boundary overlay, with a per-shard CRC over each record
    /// range so loaders can verify shards independently
    /// ([`Artifact::shard_intra_table`]).
    pub fn shards(&mut self, sharded: &ShardedNetwork) -> &mut Self {
        let tables: Vec<&DistTable> = sharded
            .shards()
            .iter()
            .map(Shard::intra)
            .chain(std::iter::once(sharded.overlay()))
            .collect();
        let mut out = Vec::new();
        snapshot::put_f64(&mut out, sharded.delta());
        snapshot::put_usize(&mut out, sharded.plan().assignment().len());
        for &s in sharded.plan().assignment() {
            snapshot::put_u32(&mut out, s);
        }
        snapshot::put_usize(&mut out, sharded.num_shards());
        for table in &tables {
            snapshot::put_usize(&mut out, table.len());
            snapshot::put_u32(&mut out, crc32(table.records()));
        }
        let meta_crc = crc32(&out);
        snapshot::put_u32(&mut out, meta_crc);
        for table in &tables {
            out.extend_from_slice(table.records());
        }
        self.sections.push((SectionKind::Shards, out));
        self
    }

    /// Adds a named trained-weight blob (the output of
    /// [`trmma_nn::serialize::save_params`], e.g. via `Mma::save_weights`).
    /// All blobs land in one params section when the builder finishes.
    pub fn params(&mut self, name: &str, blob: &[u8]) -> &mut Self {
        self.params.push((name.to_string(), blob.to_vec()));
        self
    }

    /// Packs the node2vec embedding table.
    pub fn embeddings(&mut self, table: &Matrix) -> &mut Self {
        let mut out = Vec::with_capacity(16 + table.data().len() * 8);
        snapshot::put_usize(&mut out, table.rows());
        snapshot::put_usize(&mut out, table.cols());
        for &x in table.data() {
            snapshot::put_f64(&mut out, x);
        }
        self.sections.push((SectionKind::Embeddings, out));
        self
    }

    /// Serializes the image: header, section table, header CRC, sections.
    ///
    /// # Panics
    /// Panics if a weight-blob name or blob exceeds `u32::MAX` bytes, or on
    /// more than `u16::MAX` sections — neither is reachable through the
    /// typed builder API with real models.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        if !self.params.is_empty() {
            let mut out = Vec::new();
            let count = u32::try_from(self.params.len()).expect("more than u32::MAX weight blobs");
            snapshot::put_u32(&mut out, count);
            for (name, blob) in &self.params {
                snapshot::put_bytes(&mut out, name.as_bytes()).expect("blob name over 4 GiB");
                snapshot::put_bytes(&mut out, blob).expect("weight blob over 4 GiB");
            }
            self.sections.push((SectionKind::Params, out));
        }
        let n = self.sections.len();
        let header_len = PREFIX_BYTES + n * ENTRY_BYTES + 4;
        let total: usize = header_len + self.sections.iter().map(|(_, s)| s.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        snapshot::put_u16(&mut out, VERSION);
        snapshot::put_u16(&mut out, u16::try_from(n).expect("more than u16::MAX sections"));
        snapshot::put_u64(&mut out, total as u64);
        let mut offset = header_len;
        for (kind, payload) in &self.sections {
            snapshot::put_u16(&mut out, *kind as u16);
            snapshot::put_u16(&mut out, 0); // reserved
            snapshot::put_u64(&mut out, offset as u64);
            snapshot::put_u64(&mut out, payload.len() as u64);
            snapshot::put_u32(&mut out, crc32(payload));
            offset += payload.len();
        }
        let hcrc = crc32(&out);
        snapshot::put_u32(&mut out, hcrc);
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        debug_assert_eq!(out.len(), total);
        out
    }
}

/// Verified metadata of a shards section ([`Artifact::shards_meta`]): the
/// shard plan plus the record directory used to locate and individually
/// verify each shard's packed distance records.
#[derive(Debug, Clone)]
pub struct ShardsMeta {
    /// The distance bound every stored table was built with.
    pub delta: f64,
    /// Per-node shard assignment, indexed by node id.
    pub shard_of: Vec<u32>,
    /// Distance records per shard, in shard order.
    pub shard_counts: Vec<usize>,
    /// Distance records of the boundary overlay.
    pub overlay_count: usize,
    /// Byte offset of the first record within the image.
    rec_base: usize,
    /// Per-shard CRCs over each shard's record range.
    shard_crcs: Vec<u32>,
    /// CRC over the overlay's record range.
    overlay_crc: u32,
}

impl ShardsMeta {
    /// Number of shards in the stored plan.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shard_counts.len()
    }
}

/// One entry of a decoded artifact's section table.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Raw kind tag (see [`SectionKind::from_tag`]; unknown tags are kept
    /// so `inspect` can report them).
    pub kind: u16,
    /// Byte offset of the payload within the image.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Payload CRC-32 from the (header-CRC-protected) section table;
    /// verified against the payload when the section is served.
    pub crc: u32,
}

/// A validated artifact image serving zero-parse views of its sections.
///
/// [`Artifact::decode`] checks the magic, version, total length, section
/// layout and header CRC once; each accessor then verifies its own
/// section's CRC before constructing the view straight from the shared
/// slab — [`Artifact::dist_table`] does not even copy the records out. A
/// flipped byte in the header fails [`Artifact::decode`]; a flipped byte
/// in a payload fails the accessor that serves it
/// ([`ArtifactError::SectionChecksum`]) — either way, corrupt bytes are
/// never served.
#[derive(Debug, Clone)]
pub struct Artifact {
    slab: Arc<Vec<u8>>,
    sections: Vec<SectionInfo>,
}

impl Artifact {
    /// Validates and adopts an image (see type docs for what is checked).
    ///
    /// # Errors
    /// Any [`ArtifactError`] variant describing the first check to fail.
    /// A flipped byte in the header fails here; a flipped payload byte
    /// fails the accessor serving that section — a single corrupted byte
    /// anywhere in the image is always caught before its bytes are used.
    pub fn decode(bytes: Vec<u8>) -> Result<Self, ArtifactError> {
        Self::from_shared(Arc::new(bytes))
    }

    /// [`Artifact::decode`] over an already-shared slab (several artifacts
    /// or tables may alias one buffer).
    ///
    /// # Errors
    /// See [`Artifact::decode`].
    pub fn from_shared(slab: Arc<Vec<u8>>) -> Result<Self, ArtifactError> {
        let bytes: &[u8] = &slab;
        let mut r = Reader::new(bytes);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = r.u8().map_err(|_| ArtifactError::Truncated)?;
        }
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u16().map_err(|_| ArtifactError::Truncated)?;
        if version != VERSION {
            return Err(ArtifactError::BadVersion(version));
        }
        let n = r.u16().map_err(|_| ArtifactError::Truncated)? as usize;
        let declared = r.u64().map_err(|_| ArtifactError::Truncated)?;
        if declared != bytes.len() as u64 {
            return Err(ArtifactError::LengthMismatch { declared, actual: bytes.len() as u64 });
        }
        let header_len = PREFIX_BYTES + n * ENTRY_BYTES + 4;
        if bytes.len() < header_len {
            return Err(ArtifactError::Truncated);
        }
        let mut sections = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = r.u16().map_err(|_| ArtifactError::Truncated)?;
            let _reserved = r.u16().map_err(|_| ArtifactError::Truncated)?;
            let offset = r.u64().map_err(|_| ArtifactError::Truncated)?;
            let len = r.u64().map_err(|_| ArtifactError::Truncated)?;
            let crc = r.u32().map_err(|_| ArtifactError::Truncated)?;
            let offset = usize::try_from(offset).map_err(|_| ArtifactError::Truncated)?;
            let len = usize::try_from(len).map_err(|_| ArtifactError::Truncated)?;
            sections.push(SectionInfo { kind, offset, len, crc });
        }
        // The header CRC covers everything up to itself; verify before
        // trusting any offset it protects.
        let stored_hcrc = r.u32().map_err(|_| ArtifactError::Truncated)?;
        if crc32(&bytes[..header_len - 4]) != stored_hcrc {
            return Err(ArtifactError::HeaderChecksum);
        }
        // Sections must tile the rest of the image exactly, in order: no
        // gaps, no overlaps, no trailing garbage. Payload CRCs are NOT
        // checked here — each accessor verifies its own section when it
        // serves it, so loading one section never pays to checksum the
        // others.
        let mut cursor = header_len;
        for s in &sections {
            if s.offset != cursor {
                return Err(ArtifactError::Malformed("sections out of order or overlapping"));
            }
            let end = s.offset.checked_add(s.len).ok_or(ArtifactError::Truncated)?;
            if end > bytes.len() {
                return Err(ArtifactError::Truncated);
            }
            cursor = end;
        }
        if cursor != bytes.len() {
            return Err(ArtifactError::Malformed("trailing bytes"));
        }
        for (i, s) in sections.iter().enumerate() {
            if sections[..i].iter().any(|t| t.kind == s.kind) {
                return Err(ArtifactError::DuplicateSection { kind: s.kind });
            }
        }
        Ok(Self { slab, sections })
    }

    /// The verified section table, in image order.
    #[must_use]
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// The underlying shared image.
    #[must_use]
    pub fn slab(&self) -> &Arc<Vec<u8>> {
        &self.slab
    }

    /// The payload of `kind` together with its table entry, after
    /// verifying the payload CRC. Checked on every call: the accessors
    /// are startup-path code, invoked once per process per section.
    fn verified_section(&self, kind: SectionKind) -> Result<(SectionInfo, &[u8]), ArtifactError> {
        let s = *self
            .sections
            .iter()
            .find(|s| s.kind == kind as u16)
            .ok_or(ArtifactError::MissingSection(kind))?;
        let payload = &self.slab[s.offset..s.offset + s.len];
        if crc32(payload) != s.crc {
            return Err(ArtifactError::SectionChecksum { kind: s.kind });
        }
        Ok((s, payload))
    }

    /// Materializes the road graph. Node references are range-checked here
    /// and the reconstructed segment count is compared against the declared
    /// one, so a hostile image can neither hit [`RoadNetwork::new`]'s
    /// panics nor silently shift segment ids (self-loops and duplicates
    /// would be dropped by the constructor, renumbering every id the other
    /// sections refer to).
    ///
    /// # Errors
    /// [`ArtifactError::MissingSection`] / [`ArtifactError::Malformed`].
    pub fn graph(&self) -> Result<RoadNetwork, ArtifactError> {
        let mut r = Reader::new(self.verified_section(SectionKind::Graph)?.1);
        let n_nodes = r.usize()?;
        if n_nodes.checked_mul(16).is_none_or(|b| b > r.remaining()) {
            return Err(ArtifactError::Truncated);
        }
        let mut pos = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            pos.push(trmma_geom::Vec2::new(r.f64()?, r.f64()?));
        }
        let n_segs = r.usize()?;
        if n_segs.checked_mul(9).is_none_or(|b| b > r.remaining()) {
            return Err(ArtifactError::Truncated);
        }
        let mut edges = Vec::with_capacity(n_segs);
        for _ in 0..n_segs {
            let from = r.u32()? as usize;
            let to = r.u32()? as usize;
            let class = class_from_tag(r.u8()?)?;
            if from >= n_nodes || to >= n_nodes {
                return Err(ArtifactError::Malformed("edge node out of range"));
            }
            if from == to {
                return Err(ArtifactError::Malformed("self-loop edge"));
            }
            edges.push((NodeId(from as u32), NodeId(to as u32), class));
        }
        r.expect_end()?;
        let net = RoadNetwork::new(pos, edges);
        if net.num_segments() != n_segs {
            // The constructor dropped duplicates: ids no longer line up
            // with the image's other sections.
            return Err(ArtifactError::Malformed("duplicate edges"));
        }
        Ok(net)
    }

    /// The distance table, served **zero-copy**: queries binary-search the
    /// packed records in place within the shared slab; nothing is copied
    /// or re-hashed. Answers are bitwise-identical to the table the image
    /// was built from.
    ///
    /// # Errors
    /// [`ArtifactError::MissingSection`] / [`ArtifactError::Malformed`].
    pub fn dist_table(&self) -> Result<DistTable, ArtifactError> {
        let (info, payload) = self.verified_section(SectionKind::DistTable)?;
        let mut r = Reader::new(payload);
        let delta = r.f64()?;
        let count = r.usize()?;
        let expect = count.checked_mul(DIST_RECORD_BYTES).ok_or(ArtifactError::Truncated)?;
        if r.remaining() != expect {
            return Err(ArtifactError::Malformed("dist-table record count mismatch"));
        }
        Ok(DistTable::from_image(Arc::clone(&self.slab), info.offset + 16, count, delta)?)
    }

    /// The node2vec embedding table.
    ///
    /// # Errors
    /// [`ArtifactError::MissingSection`] / [`ArtifactError::Malformed`].
    pub fn embeddings(&self) -> Result<Matrix, ArtifactError> {
        let mut r = Reader::new(self.verified_section(SectionKind::Embeddings)?.1);
        let rows = r.usize()?;
        let cols = r.usize()?;
        let n = rows.checked_mul(cols).ok_or(ArtifactError::Truncated)?;
        if n.checked_mul(8).is_none_or(|b| b != r.remaining()) {
            return Err(ArtifactError::Malformed("embedding table size mismatch"));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.f64()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// The verified metadata of the shards section: the shard plan and the
    /// record directory. Only the metadata bytes are checksummed here
    /// (`meta_crc`); record ranges are verified per shard when served.
    ///
    /// # Errors
    /// [`ArtifactError::MissingSection`] when the artifact has no shards
    /// section; [`ArtifactError::SectionChecksum`] on corrupt metadata.
    pub fn shards_meta(&self) -> Result<ShardsMeta, ArtifactError> {
        let s = *self
            .sections
            .iter()
            .find(|s| s.kind == SectionKind::Shards as u16)
            .ok_or(ArtifactError::MissingSection(SectionKind::Shards))?;
        let payload = &self.slab[s.offset..s.offset + s.len];
        let mut r = Reader::new(payload);
        let delta = r.f64()?;
        let node_count = r.usize()?;
        if node_count.checked_mul(4).is_none_or(|b| b > r.remaining()) {
            return Err(ArtifactError::Truncated);
        }
        let mut shard_of = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            shard_of.push(r.u32()?);
        }
        let num_shards = r.usize()?;
        if num_shards == 0 {
            return Err(ArtifactError::Malformed("shards section declares zero shards"));
        }
        if num_shards.checked_mul(12).is_none_or(|b| b > r.remaining()) {
            return Err(ArtifactError::Truncated);
        }
        let mut shard_counts = Vec::with_capacity(num_shards);
        let mut shard_crcs = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            shard_counts.push(r.usize()?);
            shard_crcs.push(r.u32()?);
        }
        let overlay_count = r.usize()?;
        let overlay_crc = r.u32()?;
        // meta_crc covers every metadata byte before it — including the
        // per-range CRCs, so a flipped directory entry is caught here, not
        // misattributed to a shard.
        let meta_len = payload.len() - r.remaining();
        let stored = r.u32()?;
        if crc32(&payload[..meta_len]) != stored {
            return Err(ArtifactError::SectionChecksum { kind: SectionKind::Shards as u16 });
        }
        if shard_of.iter().any(|&x| x as usize >= num_shards) {
            return Err(ArtifactError::Malformed("shard label out of range"));
        }
        let total: usize = shard_counts
            .iter()
            .chain(std::iter::once(&overlay_count))
            .try_fold(0usize, |acc, &c| {
                c.checked_mul(DIST_RECORD_BYTES).and_then(|b| acc.checked_add(b))
            })
            .ok_or(ArtifactError::Truncated)?;
        if total != r.remaining() {
            return Err(ArtifactError::Malformed("shards record ranges mismatch"));
        }
        Ok(ShardsMeta {
            delta,
            shard_of,
            shard_counts,
            overlay_count,
            rec_base: s.offset + meta_len + 4,
            shard_crcs,
            overlay_crc,
        })
    }

    /// One shard's intra-shard distance table, served **zero-copy** after
    /// verifying only that shard's record range against its own CRC — the
    /// lazily-verified load path: a process serving shard `s` never pays to
    /// checksum (or even touch) the other shards' bytes.
    ///
    /// # Errors
    /// [`ArtifactError::ShardChecksum`] when that shard's bytes are
    /// corrupt; [`ArtifactError::Malformed`] on an out-of-range index.
    pub fn shard_intra_table(&self, shard: u32) -> Result<DistTable, ArtifactError> {
        let meta = self.shards_meta()?;
        self.shard_table_at(&meta, shard)
    }

    fn shard_table_at(&self, meta: &ShardsMeta, shard: u32) -> Result<DistTable, ArtifactError> {
        let idx = shard as usize;
        if idx >= meta.shard_counts.len() {
            return Err(ArtifactError::Malformed("shard index out of range"));
        }
        let off =
            meta.rec_base + meta.shard_counts[..idx].iter().sum::<usize>() * DIST_RECORD_BYTES;
        let count = meta.shard_counts[idx];
        if crc32(&self.slab[off..off + count * DIST_RECORD_BYTES]) != meta.shard_crcs[idx] {
            return Err(ArtifactError::ShardChecksum { shard });
        }
        Ok(DistTable::from_image(Arc::clone(&self.slab), off, count, meta.delta)?)
    }

    /// The boundary-overlay table of the shards section, zero-copy, after
    /// verifying only the overlay's record range.
    ///
    /// # Errors
    /// [`ArtifactError::OverlayChecksum`] when the overlay bytes are
    /// corrupt.
    pub fn shards_overlay(&self) -> Result<DistTable, ArtifactError> {
        let meta = self.shards_meta()?;
        self.overlay_at(&meta)
    }

    fn overlay_at(&self, meta: &ShardsMeta) -> Result<DistTable, ArtifactError> {
        let off = meta.rec_base + meta.shard_counts.iter().sum::<usize>() * DIST_RECORD_BYTES;
        let count = meta.overlay_count;
        if crc32(&self.slab[off..off + count * DIST_RECORD_BYTES]) != meta.overlay_crc {
            return Err(ArtifactError::OverlayChecksum);
        }
        Ok(DistTable::from_image(Arc::clone(&self.slab), off, count, meta.delta)?)
    }

    /// Reassembles the full [`ShardedNetwork`] over `net` from the shards
    /// section: the plan from the stored assignment, every intra table and
    /// the overlay adopted zero-copy (verifying each range once), borders
    /// and per-shard R-trees derived from `net` + plan. Answers are
    /// bitwise-identical to the sharded network the image was built from.
    ///
    /// # Errors
    /// Any shards-section error above, or [`ArtifactError::Malformed`]
    /// when the stored plan does not fit `net`.
    pub fn sharded_network(&self, net: Arc<RoadNetwork>) -> Result<ShardedNetwork, ArtifactError> {
        let meta = self.shards_meta()?;
        if meta.shard_of.len() != net.num_nodes() {
            return Err(ArtifactError::Malformed("shards plan is for another graph"));
        }
        let intra = (0..meta.shard_counts.len())
            .map(|s| self.shard_table_at(&meta, s as u32))
            .collect::<Result<Vec<_>, _>>()?;
        let overlay = self.overlay_at(&meta)?;
        let num_shards = meta.shard_counts.len();
        let plan = ShardPlan::from_assignment(num_shards, meta.shard_of, net.num_nodes());
        Ok(ShardedNetwork::from_parts(net, plan, meta.delta, intra, overlay))
    }

    /// The names of the stored weight blobs, in build order (empty when the
    /// artifact has no params section).
    ///
    /// # Errors
    /// [`ArtifactError::Malformed`] on a corrupt params payload.
    pub fn param_names(&self) -> Result<Vec<String>, ArtifactError> {
        match self.verified_section(SectionKind::Params) {
            Err(ArtifactError::MissingSection(_)) => Ok(Vec::new()),
            Err(e) => Err(e),
            Ok((_, payload)) => {
                let mut names = Vec::new();
                self.each_param(payload, |name, _| {
                    names.push(name.to_string());
                    false
                })?;
                Ok(names)
            }
        }
    }

    /// The weight blob stored under `name`, as written by
    /// [`trmma_nn::serialize::save_params`] — feed it to `load_params` (or
    /// `Mma::load_weights` / `Trmma::load_weights`), which re-validates
    /// magic, version and shapes against the receiving model.
    ///
    /// # Errors
    /// [`ArtifactError::MissingParams`] when no blob has that name.
    pub fn params_blob(&self, name: &str) -> Result<&[u8], ArtifactError> {
        let (_, payload) = match self.verified_section(SectionKind::Params) {
            Err(ArtifactError::MissingSection(_)) => {
                return Err(ArtifactError::MissingParams(name.to_string()))
            }
            other => other?,
        };
        let mut found = None;
        self.each_param(payload, |n, blob| {
            if n == name {
                found = Some(blob);
                true
            } else {
                false
            }
        })?;
        found.ok_or_else(|| ArtifactError::MissingParams(name.to_string()))
    }

    /// Walks the params section, calling `f(name, blob)` per entry until it
    /// returns `true`.
    fn each_param<'a>(
        &self,
        payload: &'a [u8],
        mut f: impl FnMut(&str, &'a [u8]) -> bool,
    ) -> Result<(), ArtifactError> {
        let mut r = Reader::new(payload);
        let count = r.u32()?;
        for _ in 0..count {
            let name = std::str::from_utf8(r.bytes()?)
                .map_err(|_| ArtifactError::Malformed("blob name not UTF-8"))?;
            let blob = r.bytes()?;
            if f(name, blob) {
                return Ok(());
            }
        }
        r.expect_end()?;
        Ok(())
    }
}

fn class_tag(class: RoadClass) -> u8 {
    match class {
        RoadClass::Arterial => 0,
        RoadClass::Collector => 1,
        RoadClass::Local => 2,
    }
}

fn class_from_tag(tag: u8) -> Result<RoadClass, ArtifactError> {
    match tag {
        0 => Ok(RoadClass::Arterial),
        1 => Ok(RoadClass::Collector),
        2 => Ok(RoadClass::Local),
        _ => Err(ArtifactError::Malformed("unknown road class")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_roadnet::{generate_city, GridCut, NetworkConfig};

    fn net() -> RoadNetwork {
        generate_city(&NetworkConfig::with_size(5, 5, 77))
    }

    fn sharded(net: &RoadNetwork) -> ShardedNetwork {
        let plan = ShardPlan::new(net, &GridCut { tiles_x: 2, tiles_y: 2, seed: 1 });
        ShardedNetwork::build(Arc::new(net.clone()), plan, 600.0)
    }

    fn full_artifact(net: &RoadNetwork) -> Vec<u8> {
        let table = DistTable::build(net, 600.0);
        let emb = Matrix::from_vec(
            net.num_segments(),
            4,
            (0..net.num_segments() * 4).map(|i| i as f64 * 0.25 - 3.0).collect(),
        );
        let mut b = ArtifactBuilder::new();
        b.graph(net);
        b.dist_table(&table);
        b.embeddings(&emb);
        b.shards(&sharded(net));
        b.params("mma", b"\x00fake-blob-bytes\xff");
        b.params("trmma", &[]);
        b.finish()
    }

    #[test]
    fn round_trips_every_section() {
        let net = net();
        let table = DistTable::build(&net, 600.0);
        let image = full_artifact(&net);
        let art = Artifact::decode(image).unwrap();
        assert_eq!(art.sections().len(), 5);

        // Graph: bit-identical reconstruction.
        let g = art.graph().unwrap();
        assert_eq!(g.num_nodes(), net.num_nodes());
        assert_eq!(g.num_segments(), net.num_segments());
        for i in 0..net.num_nodes() {
            let (a, b) = (net.node_pos(NodeId(i as u32)), g.node_pos(NodeId(i as u32)));
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
        for (a, b) in net.segments().iter().zip(g.segments()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert_eq!(a.class, b.class);
            assert_eq!(a.length.to_bits(), b.length.to_bits());
        }

        // Dist table: zero-copy view, bitwise-identical answers.
        let loaded = art.dist_table().unwrap();
        assert_eq!(loaded.len(), table.len());
        assert_eq!(loaded.delta().to_bits(), table.delta().to_bits());
        for s in 0..net.num_nodes() as u32 {
            for d in 0..net.num_nodes() as u32 {
                assert_eq!(
                    table.query(NodeId(s), NodeId(d)).map(f64::to_bits),
                    loaded.query(NodeId(s), NodeId(d)).map(f64::to_bits),
                    "{s}->{d}"
                );
            }
        }
        // The view aliases the artifact's slab, not a copy.
        assert!(Arc::ptr_eq(art.slab(), art.slab()));

        // Embeddings round-trip bitwise.
        let emb = art.embeddings().unwrap();
        assert_eq!((emb.rows(), emb.cols()), (net.num_segments(), 4));
        assert_eq!(emb.data()[3].to_bits(), (3.0 * 0.25 - 3.0f64).to_bits());

        // Params by name; unknown names are typed errors.
        assert_eq!(art.param_names().unwrap(), vec!["mma", "trmma"]);
        assert_eq!(art.params_blob("mma").unwrap(), b"\x00fake-blob-bytes\xff");
        assert_eq!(art.params_blob("trmma").unwrap(), b"");
        assert_eq!(
            art.params_blob("nope").unwrap_err(),
            ArtifactError::MissingParams("nope".to_string())
        );
    }

    /// Serves every section the way a consumer would — the failure mode
    /// payload corruption must trigger now that section CRCs are checked
    /// on access rather than at decode.
    fn materialize(art: &Artifact) -> Result<(), ArtifactError> {
        art.graph()?;
        art.dist_table()?;
        art.embeddings()?;
        let meta = art.shards_meta()?;
        for s in 0..meta.num_shards() as u32 {
            art.shard_intra_table(s)?;
        }
        art.shards_overlay()?;
        for name in art.param_names()? {
            art.params_blob(&name)?;
        }
        Ok(())
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let image = full_artifact(&net());
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x01;
            let rejected = match Artifact::decode(bad) {
                Err(_) => true,
                Ok(art) => materialize(&art).is_err(),
            };
            assert!(rejected, "flipped byte {i} served");
        }
    }

    #[test]
    fn payload_corruption_fails_only_the_owning_section() {
        let image = full_artifact(&net());
        let art = Artifact::decode(image.clone()).unwrap();
        let dist =
            *art.sections().iter().find(|s| s.kind == SectionKind::DistTable as u16).unwrap();
        let mut bad = image;
        bad[dist.offset + dist.len / 2] ^= 0xFF;
        // The header still validates; the corrupt section is refused when
        // served, the intact ones still work.
        let art = Artifact::decode(bad).unwrap();
        assert_eq!(
            art.dist_table().unwrap_err(),
            ArtifactError::SectionChecksum { kind: SectionKind::DistTable as u16 }
        );
        assert!(art.graph().is_ok());
        assert!(art.embeddings().is_ok());
    }

    #[test]
    fn shards_section_round_trips_bitwise() {
        let net = net();
        let built = sharded(&net);
        let art = Artifact::decode(full_artifact(&net)).unwrap();
        let meta = art.shards_meta().unwrap();
        assert_eq!(meta.num_shards(), built.num_shards());
        assert_eq!(meta.shard_of, built.plan().assignment());
        assert_eq!(meta.delta.to_bits(), built.delta().to_bits());
        for (s, shard) in built.shards().iter().enumerate() {
            let loaded = art.shard_intra_table(s as u32).unwrap();
            assert_eq!(loaded.len(), shard.intra().len());
        }
        assert_eq!(art.shards_overlay().unwrap().len(), built.overlay().len());
        // The reassembled network answers bitwise-identically to the one
        // the image was built from, for every node pair.
        let re = art.sharded_network(Arc::new(net.clone())).unwrap();
        for s in 0..net.num_nodes() as u32 {
            for d in 0..net.num_nodes() as u32 {
                assert_eq!(
                    built.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits),
                    re.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits),
                    "{s}->{d}"
                );
            }
        }
        // A plan for a different graph is refused, not panicked on.
        let other = generate_city(&NetworkConfig::with_size(4, 4, 3));
        assert!(matches!(
            art.sharded_network(Arc::new(other)).unwrap_err(),
            ArtifactError::Malformed(_)
        ));
    }

    #[test]
    fn shard_payload_flip_fails_only_that_shard() {
        let net = net();
        let image = full_artifact(&net);
        let art = Artifact::decode(image.clone()).unwrap();
        let meta = art.shards_meta().unwrap();
        let victim = 1u32;
        assert!(meta.shard_counts[victim as usize] > 0, "fixture shard must own records");

        // Seeded flip inside the victim shard's record range.
        let mut bad = image.clone();
        let off = meta.rec_base + meta.shard_counts[0] * DIST_RECORD_BYTES + 3;
        bad[off] ^= 0x40;
        let art = Artifact::decode(bad).unwrap();
        assert_eq!(
            art.shard_intra_table(victim).unwrap_err(),
            ArtifactError::ShardChecksum { shard: victim }
        );
        // Every *other* shard, the overlay, and the unrelated sections
        // still serve — per-shard verification isolates the damage.
        for s in (0..meta.num_shards() as u32).filter(|&s| s != victim) {
            assert!(art.shard_intra_table(s).is_ok(), "shard {s} should survive");
        }
        assert!(art.shards_overlay().is_ok());
        assert!(art.dist_table().is_ok());
        // ...but assembling the full network needs every shard, so it fails.
        assert_eq!(
            art.sharded_network(Arc::new(net.clone())).unwrap_err(),
            ArtifactError::ShardChecksum { shard: victim }
        );

        // A flip in the overlay range is the overlay's error alone.
        let mut bad = image.clone();
        let over_off =
            meta.rec_base + meta.shard_counts.iter().sum::<usize>() * DIST_RECORD_BYTES + 5;
        bad[over_off] ^= 0x40;
        let art = Artifact::decode(bad).unwrap();
        assert_eq!(art.shards_overlay().unwrap_err(), ArtifactError::OverlayChecksum);
        for s in 0..meta.num_shards() as u32 {
            assert!(art.shard_intra_table(s).is_ok());
        }

        // A flip in the metadata fails the whole shards section up front.
        let info = *art.sections().iter().find(|s| s.kind == SectionKind::Shards as u16).unwrap();
        let mut bad = image.clone();
        // Flip a shard_of label (byte 16 onward: after delta + node_count),
        // which keeps the parse shape intact so the CRC is what catches it.
        bad[info.offset + 17] ^= 0x01;
        let art = Artifact::decode(bad).unwrap();
        assert_eq!(
            art.shards_meta().unwrap_err(),
            ArtifactError::SectionChecksum { kind: SectionKind::Shards as u16 }
        );
    }

    #[test]
    fn golden_section_bytes_are_pinned() {
        // A fixed small image: any change to the bytes the table builders
        // or the section writers produce shows as a new length or CRC.
        let net = generate_city(&NetworkConfig::with_size(6, 6, 29));
        let plan = ShardPlan::new(&net, &GridCut { tiles_x: 2, tiles_y: 2, seed: 9 });
        let mut b = ArtifactBuilder::new();
        b.graph(&net);
        b.dist_table(&DistTable::build(&net, 600.0));
        b.shards(&ShardedNetwork::build(Arc::new(net.clone()), plan, 600.0));
        let art = Artifact::decode(b.finish()).unwrap();
        let got: Vec<(u16, usize, u32)> =
            art.sections().iter().map(|s| (s.kind, s.len, s.crc)).collect();
        assert_eq!(got, [(1, 1537, 0x2daf_2f75), (2, 7456, 0x5037_bf06), (5, 6936, 0xb6fd_ada8)]);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let image = full_artifact(&net());
        for n in 0..image.len() {
            assert!(Artifact::decode(image[..n].to_vec()).is_err(), "prefix {n} accepted");
        }
        // Appended garbage fails the total-length check.
        let mut long = image.clone();
        long.push(0);
        assert!(matches!(
            Artifact::decode(long).unwrap_err(),
            ArtifactError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn header_guards() {
        assert_eq!(Artifact::decode(b"XXXX".to_vec()).unwrap_err(), ArtifactError::BadMagic);
        assert_eq!(Artifact::decode(b"TR".to_vec()).unwrap_err(), ArtifactError::Truncated);
        let image = full_artifact(&net());
        let mut v9 = image.clone();
        v9[4] = 9;
        // The version check fires before the header CRC can (both would
        // reject; the version error is the more useful report).
        assert_eq!(Artifact::decode(v9).unwrap_err(), ArtifactError::BadVersion(9));
    }

    #[test]
    fn missing_sections_are_typed_errors() {
        let net = net();
        let mut b = ArtifactBuilder::new();
        b.graph(&net);
        let art = Artifact::decode(b.finish()).unwrap();
        assert!(art.graph().is_ok());
        assert_eq!(
            art.dist_table().unwrap_err(),
            ArtifactError::MissingSection(SectionKind::DistTable)
        );
        assert_eq!(
            art.embeddings().unwrap_err(),
            ArtifactError::MissingSection(SectionKind::Embeddings)
        );
        assert_eq!(art.param_names().unwrap(), Vec::<String>::new());
        assert!(matches!(art.params_blob("mma").unwrap_err(), ArtifactError::MissingParams(_)));
    }

    #[test]
    fn errors_display() {
        for e in [
            ArtifactError::Truncated,
            ArtifactError::BadMagic,
            ArtifactError::BadVersion(9),
            ArtifactError::LengthMismatch { declared: 10, actual: 9 },
            ArtifactError::HeaderChecksum,
            ArtifactError::SectionChecksum { kind: 2 },
            ArtifactError::ShardChecksum { shard: 3 },
            ArtifactError::OverlayChecksum,
            ArtifactError::DuplicateSection { kind: 1 },
            ArtifactError::MissingSection(SectionKind::Params),
            ArtifactError::MissingParams("x".to_string()),
            ArtifactError::Malformed("y"),
        ] {
            assert!(!e.to_string().is_empty());
        }
        assert_eq!(SectionKind::from_tag(4), Some(SectionKind::Embeddings));
        assert_eq!(SectionKind::from_tag(5), Some(SectionKind::Shards));
        assert_eq!(SectionKind::from_tag(6), None);
        assert_eq!(SectionKind::DistTable.name(), "dist_table");
        assert_eq!(SectionKind::Shards.name(), "shards");
    }
}
