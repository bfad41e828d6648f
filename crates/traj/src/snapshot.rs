//! Wire primitives of the session-snapshot format.
//!
//! A crash-safe streaming deployment must be able to freeze a live
//! [`OnlineMatcher`] session — the Viterbi lattice of an HMM-family
//! decoder, MMA's accumulated candidate sets — into bytes and thaw it
//! later, on another worker or another process, continuing the decode
//! **bitwise-identically**. This module provides the codec layer those
//! payloads are written in; the versioned, checksummed *envelope* around a
//! payload (magic, matcher kind, engine-side counters, CRC) lives in
//! `trmma_core::snapshot`, next to the engine that emits it.
//!
//! Two rules make restores bitwise-exact and portable:
//!
//! * every `f64` travels as its IEEE-754 bit pattern
//!   ([`f64::to_bits`]/[`f64::from_bits`]) — no text round-trip, no
//!   rounding, NaN payloads and signed zeros preserved;
//! * all integers are fixed-width little-endian; `usize` quantities travel
//!   as `u64` (the in-memory sentinel `usize::MAX` used by the Viterbi
//!   backpointers round-trips as `u64::MAX`).
//!
//! Decoding never panics: every [`Reader`] accessor returns
//! [`SnapshotError`] on truncated or malformed input, so a corrupt or
//! truncated snapshot is reported, not unwound through a worker thread.
//!
//! [`OnlineMatcher`]: crate::online::OnlineMatcher

use trmma_geom::Vec2;
use trmma_roadnet::SegmentId;

use crate::api::{Candidate, MatchResult};
use crate::types::{GpsPoint, MatchedPoint, Route, Trajectory};

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the announced data did.
    Truncated,
    /// The envelope does not start with the snapshot magic.
    BadMagic,
    /// The envelope's format version is not understood by this build.
    BadVersion(u16),
    /// The envelope checksum does not match its contents.
    Checksum,
    /// The snapshot was produced by a different matcher than the one
    /// restoring it.
    WrongMatcher {
        /// The matcher asked to restore.
        expected: String,
        /// The matcher named in the snapshot.
        found: String,
    },
    /// Structurally invalid payload (inconsistent lengths, trailing bytes).
    Malformed(&'static str),
    /// A section is too large for its fixed-width length field. Raised by
    /// the *writer*: a length that does not fit `u32` must fail the encode
    /// rather than be truncated into a wrong-but-plausible prefix length.
    Oversize {
        /// The actual byte length that did not fit.
        len: usize,
    },
    /// A weight blob holds a different number of parameters than the
    /// model loading it.
    CountMismatch {
        /// Parameters the model has.
        expected: usize,
        /// Parameters the blob holds.
        found: usize,
    },
    /// A weight blob's parameter differs in shape from the model's.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
        /// `(rows, cols)` of the model's parameter.
        expected: (usize, usize),
        /// `(rows, cols)` stored in the blob.
        found: (usize, usize),
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "input truncated"),
            Self::BadMagic => write!(f, "bad magic: not the expected format"),
            Self::BadVersion(v) => write!(f, "unsupported format version {v}"),
            Self::Checksum => write!(f, "envelope checksum mismatch"),
            Self::WrongMatcher { expected, found } => {
                write!(f, "snapshot is for matcher {found:?}, not {expected:?}")
            }
            Self::Malformed(what) => write!(f, "malformed input: {what}"),
            Self::Oversize { len } => {
                write!(f, "snapshot section of {len} bytes exceeds the u32 length field")
            }
            Self::CountMismatch { expected, found } => {
                write!(f, "parameter count mismatch: model has {expected}, blob has {found}")
            }
            Self::ShapeMismatch { index, expected: (er, ec), found: (fr, fc) } => {
                write!(f, "parameter {index} is {fr}×{fc} in the blob, {er}×{ec} in the model")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16`, little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64` (`usize::MAX` ↔ `u64::MAX`).
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its exact IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Checks that `len` fits the codec's `u32` length fields.
///
/// # Errors
/// [`SnapshotError::Oversize`] when it does not — the writer must refuse
/// rather than truncate the length into a wrong-but-plausible value.
pub fn check_u32_len(len: usize) -> Result<u32, SnapshotError> {
    u32::try_from(len).map_err(|_| SnapshotError::Oversize { len })
}

/// Appends a length-prefixed byte string (`u32` length).
///
/// # Errors
/// [`SnapshotError::Oversize`] when `bytes` is longer than `u32::MAX` —
/// nothing is appended in that case, so a failed encode leaves `out`
/// unchanged rather than half-written.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), SnapshotError> {
    put_u32(out, check_u32_len(bytes.len())?);
    out.extend_from_slice(bytes);
    Ok(())
}

/// Appends a GPS point (position bits + timestamp bits).
pub fn put_gps(out: &mut Vec<u8>, p: GpsPoint) {
    put_f64(out, p.pos.x);
    put_f64(out, p.pos.y);
    put_f64(out, p.t);
}

/// Appends a candidate (segment id, distance bits, ratio bits).
pub fn put_candidate(out: &mut Vec<u8>, c: &Candidate) {
    put_u32(out, c.seg.0);
    put_f64(out, c.dist_m);
    put_f64(out, c.ratio);
}

/// Appends a matched point (segment id, ratio bits, timestamp bits).
pub fn put_matched(out: &mut Vec<u8>, m: &MatchedPoint) {
    put_u32(out, m.seg.0);
    put_f64(out, m.ratio);
    put_f64(out, m.t);
}

/// A bounds-checked cursor over snapshot bytes; every accessor fails with
/// [`SnapshotError::Truncated`] instead of panicking on short input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — snapshots carry no
    /// trailing garbage.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads four bytes and fails with [`SnapshotError::BadMagic`] unless
    /// they are `magic`.
    pub fn magic(&mut self, magic: [u8; 4]) -> Result<(), SnapshotError> {
        if self.take(4)? == magic {
            Ok(())
        } else {
            Err(SnapshotError::BadMagic)
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` stored as `u64` (`u64::MAX` ↔ `usize::MAX`).
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    /// Reads an element count used to size an allocation, rejecting
    /// counts whose elements — each at least `min_bytes` long on the wire —
    /// could not fit in the remaining bytes (a corrupt count must not
    /// trigger a huge allocation).
    pub fn seq_len(&mut self, min_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.checked_mul(min_bytes).is_none_or(|b| b > self.remaining()) {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a GPS point.
    pub fn gps(&mut self) -> Result<GpsPoint, SnapshotError> {
        Ok(GpsPoint { pos: Vec2::new(self.f64()?, self.f64()?), t: self.f64()? })
    }

    /// Reads a candidate.
    pub fn candidate(&mut self) -> Result<Candidate, SnapshotError> {
        Ok(Candidate { seg: SegmentId(self.u32()?), dist_m: self.f64()?, ratio: self.f64()? })
    }

    /// Reads a matched point **without** re-clamping the ratio: the encoder
    /// wrote an already-constructed point, and restore must reproduce its
    /// bits exactly.
    pub fn matched(&mut self) -> Result<MatchedPoint, SnapshotError> {
        let seg = SegmentId(self.u32()?);
        let ratio = self.f64()?;
        let t = self.f64()?;
        Ok(MatchedPoint { seg, ratio, t })
    }
}

/// Encodes a trajectory (point count + points).
pub fn put_trajectory(out: &mut Vec<u8>, traj: &Trajectory) {
    put_usize(out, traj.points.len());
    for &p in &traj.points {
        put_gps(out, p);
    }
}

/// Decodes a trajectory written by [`put_trajectory`].
pub fn read_trajectory(r: &mut Reader<'_>) -> Result<Trajectory, SnapshotError> {
    let n = r.seq_len(24)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push(r.gps()?);
    }
    Ok(Trajectory { points })
}

/// Encodes a per-point candidate list-of-lists (layer count, then each
/// layer's candidate count + candidates).
pub fn put_cand_sets(out: &mut Vec<u8>, sets: &[Vec<Candidate>]) {
    put_usize(out, sets.len());
    for set in sets {
        put_usize(out, set.len());
        for c in set {
            put_candidate(out, c);
        }
    }
}

/// Decodes candidate sets written by [`put_cand_sets`].
pub fn read_cand_sets(r: &mut Reader<'_>) -> Result<Vec<Vec<Candidate>>, SnapshotError> {
    let layers = r.seq_len(8)?;
    let mut sets = Vec::with_capacity(layers);
    for _ in 0..layers {
        let n = r.seq_len(20)?;
        let mut set = Vec::with_capacity(n);
        for _ in 0..n {
            set.push(r.candidate()?);
        }
        sets.push(set);
    }
    Ok(sets)
}

/// Encodes a route (segment count + segment ids).
pub fn put_route(out: &mut Vec<u8>, route: &Route) {
    put_usize(out, route.segs.len());
    for &s in &route.segs {
        put_u32(out, s.0);
    }
}

/// Decodes a route written by [`put_route`].
pub fn read_route(r: &mut Reader<'_>) -> Result<Route, SnapshotError> {
    let n = r.seq_len(4)?;
    let mut segs = Vec::with_capacity(n);
    for _ in 0..n {
        segs.push(SegmentId(r.u32()?));
    }
    Ok(Route { segs })
}

/// Encodes a full match result (matched points + stitched route). This is
/// the payload of a `Final` reply on the ingest wire: the bytes must round
/// trip bitwise so a remote client can compare against an offline decode.
pub fn put_match_result(out: &mut Vec<u8>, res: &MatchResult) {
    put_usize(out, res.matched.len());
    for m in &res.matched {
        put_matched(out, m);
    }
    put_route(out, &res.route);
}

/// Decodes a match result written by [`put_match_result`].
pub fn read_match_result(r: &mut Reader<'_>) -> Result<MatchResult, SnapshotError> {
    let n = r.seq_len(20)?;
    let mut matched = Vec::with_capacity(n);
    for _ in 0..n {
        matched.push(r.matched()?);
    }
    let route = read_route(r)?;
    Ok(MatchResult { matched, route })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bitwise() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_usize(&mut buf, usize::MAX);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NEG_INFINITY);
        put_f64(&mut buf, f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), usize::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
        // A corrupt length field cannot demand more than the buffer holds.
        let mut buf = Vec::new();
        put_usize(&mut buf, 1 << 40);
        let mut r = Reader::new(&buf);
        assert_eq!(r.seq_len(1), Err(SnapshotError::Truncated));
    }

    #[test]
    fn composites_round_trip() {
        let traj = Trajectory {
            points: vec![
                GpsPoint { pos: Vec2::new(1.5, -2.25), t: 10.0 },
                GpsPoint { pos: Vec2::new(0.0, 3.0), t: 11.5 },
            ],
        };
        let sets = vec![
            vec![Candidate { seg: SegmentId(3), dist_m: 1.25, ratio: 0.5 }],
            vec![],
            vec![
                Candidate { seg: SegmentId(0), dist_m: 0.0, ratio: 0.0 },
                Candidate { seg: SegmentId(u32::MAX), dist_m: f64::MAX, ratio: 1.0 },
            ],
        ];
        let m = MatchedPoint { seg: SegmentId(9), ratio: 0.75, t: 1e9 };
        let mut buf = Vec::new();
        put_trajectory(&mut buf, &traj);
        put_cand_sets(&mut buf, &sets);
        put_matched(&mut buf, &m);
        let mut r = Reader::new(&buf);
        assert_eq!(read_trajectory(&mut r).unwrap(), traj);
        assert_eq!(read_cand_sets(&mut r).unwrap(), sets);
        assert_eq!(r.matched().unwrap(), m);
        r.expect_end().unwrap();
        assert_eq!(Reader::new(&buf).expect_end(), Err(SnapshotError::Malformed("trailing bytes")));
    }

    #[test]
    fn match_results_round_trip_bitwise() {
        let res = MatchResult {
            matched: vec![
                MatchedPoint { seg: SegmentId(3), ratio: 0.0, t: -0.0 },
                MatchedPoint { seg: SegmentId(u32::MAX), ratio: 1.0, t: 1e12 },
            ],
            route: Route::new(vec![SegmentId(3), SegmentId(4), SegmentId(u32::MAX)]),
        };
        let mut buf = Vec::new();
        put_match_result(&mut buf, &res);
        let mut r = Reader::new(&buf);
        let back = read_match_result(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, res);
        assert_eq!(back.matched[0].t.to_bits(), (-0.0f64).to_bits());
        // Truncation anywhere inside is an error, never a panic.
        for cut in 0..buf.len() {
            assert!(read_match_result(&mut Reader::new(&buf[..cut])).is_err());
        }
    }

    #[test]
    fn length_fields_error_at_the_u32_boundary_instead_of_truncating() {
        // The check itself is exact at the boundary…
        assert_eq!(check_u32_len(0), Ok(0));
        assert_eq!(check_u32_len(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        {
            let over = u32::MAX as usize + 1;
            assert_eq!(check_u32_len(over), Err(SnapshotError::Oversize { len: over }));
            assert!(check_u32_len(over).unwrap_err().to_string().contains("4294967296"));
        }
        // …and put_bytes routes every length through it before writing
        // anything (a failed encode leaves the buffer untouched by
        // construction: the length check precedes the first append).
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"ok").unwrap();
        assert_eq!(buf.len(), 4 + 2);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"ok");
        r.expect_end().unwrap();
    }

    #[test]
    fn errors_display() {
        let e = SnapshotError::WrongMatcher { expected: "HMM".into(), found: "MMA".into() };
        assert!(e.to_string().contains("MMA"));
        assert!(SnapshotError::BadVersion(9).to_string().contains('9'));
        assert!(!SnapshotError::Checksum.to_string().is_empty());
        assert!(!SnapshotError::BadMagic.to_string().is_empty());
        assert!(!SnapshotError::Truncated.to_string().is_empty());
        assert!(!SnapshotError::Malformed("x").to_string().is_empty());
        assert!(SnapshotError::Oversize { len: 5 }.to_string().contains('5'));
        let e = SnapshotError::CountMismatch { expected: 2, found: 3 };
        assert!(e.to_string().contains('2') && e.to_string().contains('3'));
        let e = SnapshotError::ShapeMismatch { index: 4, expected: (3, 4), found: (4, 3) };
        assert!(e.to_string().contains("4×3"));
    }
}
