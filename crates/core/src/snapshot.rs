//! The one envelope every framed format travels in, and the session
//! checkpoint framed in it.
//!
//! Session checkpoints (TRMS, below), ingest wire frames (TRMP,
//! [`crate::serve`]) and the artifact header (TRMA, [`crate::artifact`])
//! all share one shape, written by [`seal`] and checked by [`open`]:
//!
//! ```text
//! magic [u8; 4] | version u16 | body | CRC-32 of every byte before it
//! ```
//!
//! [`open`] checks the magic first, then either the version or the CRC,
//! as its [`Guard`] says: a checkpoint or an artifact whose version this
//! build does not read is refused before anything else, while a wire
//! frame is checksummed before it is parsed and its version handed to the
//! server, which answers a foreign one with a typed refusal.
//!
//! [`crate::stream::StreamEngine`] survives worker panics and rolling
//! restarts by freezing live [`OnlineMatcher`] sessions to bytes and
//! thawing them later — possibly in another process. The matcher writes
//! only its raw decoder payload ([`OnlineMatcher::snapshot_session`]);
//! this module wraps that payload in the durable [`SessionSnapshot`]
//! envelope that makes a checkpoint safe to store and hand around:
//!
//! ```text
//! magic "TRMS" | version u16 | matcher name | session id u64 |
//! seq u64 | last_t f64-bits | payload bytes | CRC-32 u32
//! ```
//!
//! * the **magic + version** reject foreign or future formats up front;
//! * the **matcher name** ([`OnlineMatcher::NAME`]) rejects restoring a
//!   snapshot into a different decoder, where the payload might even parse
//!   but the continued decode would be silently wrong;
//! * **seq / last_t** carry the engine-side per-session counters (events
//!   emitted, last accepted timestamp) that live outside the matcher
//!   payload but must survive a restore for event numbering and
//!   late-point drops to continue exactly where they left off;
//! * the trailing **CRC-32** (IEEE 802.3) detects torn or bit-rotted
//!   checkpoints before the checkpoint is used.
//!
//! All scalar encoding (fixed-width little-endian, `f64` as exact bit
//! patterns) comes from [`trmma_traj::snapshot`]; decoding never panics.
//!
//! [`OnlineMatcher`]: trmma_traj::online::OnlineMatcher
//! [`OnlineMatcher::snapshot_session`]: trmma_traj::online::OnlineMatcher::snapshot_session
//! [`OnlineMatcher::NAME`]: trmma_traj::online::OnlineMatcher::NAME

use trmma_traj::snapshot::{self, Reader, SnapshotError};

use crate::stream::SessionId;

/// Envelope magic: "TRMS" (TRMma Session).
pub const MAGIC: [u8; 4] = *b"TRMS";

/// The envelope format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Slice-by-16 lookup tables for [`crc32`], built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; table `k` advances
/// a byte through `k` further zero bytes, so sixteen input bytes fold in
/// one step.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Folds one little-endian word through four [`CRC_TABLES`] lanes,
/// `lane` being the table index of the word's most significant byte.
#[inline]
const fn fold(word: u32, lane: usize) -> u32 {
    CRC_TABLES[lane + 3][(word & 0xFF) as usize]
        ^ CRC_TABLES[lane + 2][((word >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[lane + 1][((word >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[lane][(word >> 24) as usize]
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) of `bytes` —
/// the checksum trailing every [`seal`]ed envelope and guarding every
/// [`crate::artifact`] section. Slice-by-16: artifact images run to
/// megabytes and are checksummed on every load, so the bit-at-a-time
/// loop (8 shift/xor steps per *bit*) would dominate the zero-parse
/// cold-start path it exists to protect.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let word = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        crc = fold(word(&c[0..4]) ^ crc, 12)
            ^ fold(word(&c[4..8]), 8)
            ^ fold(word(&c[8..12]), 4)
            ^ fold(word(&c[12..16]), 0);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Which check [`open`] runs right after the magic.
#[derive(Debug, Clone, Copy)]
pub enum Guard {
    /// Refuse every version but this one, then parse the body, then verify
    /// the CRC that follows it. What follows the CRC is the caller's.
    Version(u16),
    /// Verify the CRC in the last four bytes before parsing anything, then
    /// hand the version to the body unjudged. Nothing may follow the body.
    Crc,
}

/// Appends `magic | version | body | CRC-32 of those bytes` to `out`;
/// `body` writes the fields between the version and the CRC.
///
/// # Errors
/// Whatever `body` returns; `out` then holds a partial envelope.
pub fn seal(
    out: &mut Vec<u8>,
    magic: [u8; 4],
    version: u16,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let start = out.len();
    out.extend_from_slice(&magic);
    snapshot::put_u16(out, version);
    body(out)?;
    let crc = crc32(&out[start..]);
    snapshot::put_u32(out, crc);
    Ok(())
}

/// Opens an envelope [`seal`]ed at the start of `bytes`: the magic, then
/// the checks of `guard` in its order. `body` reads the fields between
/// the version and the CRC from the cursor it is handed, together with
/// the version. Returns what `body` returned and the bytes after the CRC.
///
/// # Errors
/// [`SnapshotError::Truncated`] / [`SnapshotError::BadMagic`] /
/// [`SnapshotError::BadVersion`] / [`SnapshotError::Checksum`], converted
/// into `E`, or whatever `body` returns.
pub fn open<'a, T, E: From<SnapshotError>>(
    bytes: &'a [u8],
    magic: [u8; 4],
    guard: Guard,
    body: impl FnOnce(u16, &mut Reader<'a>) -> Result<T, E>,
) -> Result<(T, &'a [u8]), E> {
    Reader::new(bytes).magic(magic)?;
    match guard {
        Guard::Version(want) => {
            let mut r = Reader::new(&bytes[4..]);
            let version = r.u16()?;
            if version != want {
                return Err(SnapshotError::BadVersion(version).into());
            }
            let value = body(version, &mut r)?;
            let sealed = bytes.len() - r.remaining();
            if r.u32()? != crc32(&bytes[..sealed]) {
                return Err(SnapshotError::Checksum.into());
            }
            Ok((value, &bytes[sealed + 4..]))
        }
        Guard::Crc => {
            let sealed = bytes.len().checked_sub(4).filter(|&n| n >= 4);
            let sealed = sealed.ok_or(SnapshotError::Truncated)?;
            if Reader::new(&bytes[sealed..]).u32()? != crc32(&bytes[..sealed]) {
                return Err(SnapshotError::Checksum.into());
            }
            let mut r = Reader::new(&bytes[4..sealed]);
            let value = body(r.u16()?, &mut r)?;
            r.expect_end()?;
            Ok((value, &bytes[bytes.len()..]))
        }
    }
}

/// One checkpointed streaming session: the matcher's serialized decoder
/// state plus the engine-side counters needed to resume the stream
/// in place. Produced by `StreamEngine::drain_snapshots` and by the
/// supervisor's checkpoint path; consumed by `StreamEngine::restore`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The session id the checkpoint belongs to.
    pub session: SessionId,
    /// [`OnlineMatcher::NAME`] of the matcher that wrote the payload.
    ///
    /// [`OnlineMatcher::NAME`]: trmma_traj::online::OnlineMatcher::NAME
    pub matcher: String,
    /// Events emitted so far (the next `StreamEvent::Update` seq).
    pub seq: u64,
    /// Timestamp of the last accepted point (`-inf` before any), carried
    /// bit-exactly so late-point drops resume with the same cutoff.
    pub last_t: f64,
    /// The matcher's raw decoder payload
    /// ([`trmma_traj::online::OnlineMatcher::snapshot_session`]).
    pub payload: Vec<u8>,
}

impl SessionSnapshot {
    /// Serializes the envelope (format above, CRC last).
    ///
    /// # Errors
    /// [`SnapshotError::Oversize`] when the matcher name or payload is too
    /// long for its `u32` length field — refused rather than truncated,
    /// since a truncated length would decode as a *different* valid-looking
    /// envelope.
    pub fn encode(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::with_capacity(self.payload.len() + 64);
        seal(&mut out, MAGIC, VERSION, |out| {
            snapshot::put_bytes(out, self.matcher.as_bytes())?;
            snapshot::put_u64(out, self.session);
            snapshot::put_u64(out, self.seq);
            snapshot::put_f64(out, self.last_t);
            snapshot::put_bytes(out, &self.payload)
        })?;
        Ok(out)
    }

    /// Parses and verifies an envelope: magic, version, structure,
    /// checksum, no trailing bytes — the matcher payload itself is
    /// validated later, by the restoring matcher's
    /// [`trmma_traj::online::OnlineMatcher::restore_session`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (snap, rest) = open(bytes, MAGIC, Guard::Version(VERSION), |_, r| {
            let matcher = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| SnapshotError::Malformed("matcher name not UTF-8"))?;
            let (session, seq, last_t) = (r.u64()?, r.u64()?, r.f64()?);
            let payload = r.bytes()?.to_vec();
            Ok::<_, SnapshotError>(Self { session, matcher, seq, last_t, payload })
        })?;
        Reader::new(rest).expect_end()?;
        Ok(snap)
    }

    /// Fails with [`SnapshotError::WrongMatcher`] unless the snapshot was
    /// written by a matcher named `expected`.
    pub fn expect_matcher(&self, expected: &str) -> Result<(), SnapshotError> {
        if self.matcher == expected {
            Ok(())
        } else {
            Err(SnapshotError::WrongMatcher {
                expected: expected.to_string(),
                found: self.matcher.clone(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionSnapshot {
        SessionSnapshot {
            session: 42,
            matcher: "HMM".to_string(),
            seq: 17,
            last_t: 123.456,
            payload: vec![1, 2, 3, 250, 0, 9],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_tail_length() {
        let reference = |bytes: &[u8]| -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        };
        // Lengths 0..=64 cover empty input, tails 1..=7 and full 8-byte
        // lanes of the slice-by-8 fold.
        let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(197) ^ 0x5A) as u8).collect();
        for n in 0..=data.len() {
            assert_eq!(crc32(&data[..n]), reference(&data[..n]), "length {n}");
        }
    }

    #[test]
    fn envelope_round_trips() {
        let snap = sample();
        let bytes = snap.encode().unwrap();
        assert_eq!(SessionSnapshot::decode(&bytes).unwrap(), snap);
        // -inf last_t (no point accepted yet) round-trips bit-exactly.
        let fresh = SessionSnapshot { last_t: f64::NEG_INFINITY, ..sample() };
        let decoded = SessionSnapshot::decode(&fresh.encode().unwrap()).unwrap();
        assert_eq!(decoded.last_t.to_bits(), f64::NEG_INFINITY.to_bits());
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().encode().unwrap();
        // Flip one payload bit: checksum must catch it.
        for i in [6, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = SessionSnapshot::decode(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Checksum
                        | SnapshotError::Malformed(_)
                        | SnapshotError::Truncated
                ),
                "byte {i}: unexpected error {err:?}"
            );
        }
        // Truncation at every prefix length: error, never panic.
        for n in 0..bytes.len() {
            assert!(SessionSnapshot::decode(&bytes[..n]).is_err(), "prefix {n} accepted");
        }
        assert_eq!(SessionSnapshot::decode(b"NOPE").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(SessionSnapshot::decode(b"NO").unwrap_err(), SnapshotError::Truncated);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(SessionSnapshot::decode(&wrong_magic).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn version_and_matcher_guards() {
        let mut v2 = sample().encode().unwrap();
        v2[4] = 2; // bump version field
        v2.truncate(v2.len() - 4);
        let crc = crc32(&v2);
        snapshot::put_u32(&mut v2, crc);
        assert_eq!(SessionSnapshot::decode(&v2).unwrap_err(), SnapshotError::BadVersion(2));

        let snap = sample();
        snap.expect_matcher("HMM").unwrap();
        let err = snap.expect_matcher("MMA").unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongMatcher { expected: "MMA".into(), found: "HMM".into() }
        );
    }
}
