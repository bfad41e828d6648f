//! Network ingest front-end: a std-only TCP service over [`StreamEngine`].
//!
//! PR 6 built the hard part of a production streaming deployment — the
//! versioned [`SessionSnapshot`], [`StreamEngine::drain_snapshots`] /
//! [`StreamEngine::restore`], worker supervision — but points still had to
//! originate in-process. This module carries them across a process
//! boundary: a versioned, length-prefixed binary protocol (magic `TRMP`)
//! whose frames travel in the one envelope of [`crate::snapshot`]
//! ([`seal`] / [`open`], CRC checked before any field is parsed), served
//! by [`Server`] and spoken by [`ServeClient`].
//!
//! # Wire format
//!
//! Every frame, request or reply, is one envelope:
//!
//! ```text
//! "TRMP" | version u16 | kind u8 | tenant u64 | session u64
//!        | payload (u32 length + bytes) | CRC-32 of all preceding bytes
//! ```
//!
//! Request kinds: [`FrameKind::Open`], [`FrameKind::Push`] (payload = one
//! GPS point), [`FrameKind::Finalize`], [`FrameKind::Snapshot`] (operator
//! drain), [`FrameKind::Restore`] (payload = an encoded
//! [`SessionSnapshot`]), [`FrameKind::Stats`]. Replies echo the tenant and
//! session of the request they answer; backpressure surfaces as a typed
//! [`FrameKind::Busy`] reply (never a silent drop) and every malformed or
//! unauthorized frame gets a typed [`FrameKind::Refused`] reply.
//!
//! # Service semantics
//!
//! * **Backpressure, end to end.** Each connection has a bounded inflight
//!   window (accepted-but-unacked pushes); each tenant has a bounded
//!   queue, drained round-robin across tenants (one point per tenant per
//!   cycle) so one hot tenant cannot starve the rest; and when
//!   [`StreamEngine::push`] hits its `push_timeout_s` deadline the client
//!   sees [`BusyCode::PushTimeout`].
//! * **Rolling restart.** A [`FrameKind::Snapshot`] frame quiesces
//!   admissions, drains every live session through
//!   [`StreamEngine::drain_snapshots`], and streams one
//!   [`FrameKind::SnapshotData`] reply per session; feeding those payloads
//!   to a successor process via [`FrameKind::Restore`] rehydrates them, so
//!   an operator can bounce the server with zero dropped sessions.
//! * **Sessions outlive connections.** A client may disconnect and
//!   reconnect; session state lives in the engine until finalized,
//!   drained, or idle-evicted.
//! * **Hand-offs block; nothing polls.** The accept thread blocks in
//!   `accept`, each reader in `read`, each writer on its reply channel,
//!   and the pump — when a cycle found nothing to do — on the engine's
//!   doorbell. Every producer of pump work rings that bell: readers after
//!   a tenant-queue or control enqueue, workers after every event, reply
//!   and exit, and [`Server::stop`]. A point therefore costs no sleep on
//!   its way to the engine or on its ack's way back.
//!
//! # Trust model
//!
//! Tenant ids are client-asserted — there is no authentication layer, so
//! tenant isolation (session caps, queue bounds, fairness rows) is
//! *cooperative*: it protects well-behaved tenants from each other's
//! load, not from an adversary who spoofs another tenant's id. What the
//! server does guarantee against hostile input is bounded resource use:
//! frames touching foreign sessions get a typed [`RefuseCode::WrongTenant`]
//! without minting registry state for the probed id, oversized length
//! prefixes are refused from the header alone, and stalled connections
//! are reaped. Deploy behind an authenticating proxy when tenants are
//! not mutually trusted.
//!
//! [`ServeStats`] counts what happened — accepted/refused frames,
//! per-tenant queue-full events, bytes in/out, restore counts — in the same
//! style as [`RouterStats`](crate::RouterStats).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trmma_traj::snapshot::{
    put_bytes, put_gps, put_matched, put_u32, put_u64, put_u8, read_match_result, Reader,
    SnapshotError,
};
use trmma_traj::types::GpsPoint;
use trmma_traj::OnlineMatcher;

use crate::snapshot::{open, seal, Guard, SessionSnapshot};
use crate::stream::{Bell, FaultPlan, SessionId, StreamEngine, StreamEvent, StreamOptions};

/// The four magic bytes every ingest frame starts with.
pub const MAGIC: [u8; 4] = *b"TRMP";

/// Protocol version spoken by this build.
pub const VERSION: u16 = 2;

/// Fixed envelope prefix: magic + version + kind + tenant + session +
/// payload length. The payload bytes and the trailing CRC-32 follow.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 8 + 8 + 4;

/// What a frame is — requests below 16, replies at 16 and above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Request: open a session (empty payload).
    Open = 1,
    /// Request: push one GPS point (payload = x, y, t bit patterns).
    Push = 2,
    /// Request: finalize a session (empty payload).
    Finalize = 3,
    /// Request: drain every live session for a rolling restart.
    Snapshot = 4,
    /// Request: rehydrate one drained session (payload = encoded
    /// [`SessionSnapshot`]).
    Restore = 5,
    /// Request: report [`ServeStats`] (empty payload).
    Stats = 6,
    /// Reply to [`FrameKind::Open`].
    Opened = 16,
    /// Reply to an accepted push once decoded (payload = seq,
    /// stable-prefix watermark, optional provisional match).
    Ack = 17,
    /// Reply to [`FrameKind::Finalize`] (payload = finalize reason, point
    /// count, encoded `MatchResult`).
    Final = 18,
    /// One drained session (payload = encoded [`SessionSnapshot`] with the
    /// session field rewritten to the client-visible id).
    SnapshotData = 19,
    /// End of a snapshot stream (payload = session count).
    SnapshotDone = 20,
    /// Reply to [`FrameKind::Restore`].
    Restored = 21,
    /// Reply to [`FrameKind::Stats`] (payload = encoded [`ServeStats`]).
    StatsReply = 22,
    /// Typed backpressure (payload = [`BusyCode`]); retry later.
    Busy = 23,
    /// Typed refusal (payload = [`RefuseCode`] + detail word); retrying
    /// the same frame will not succeed.
    Refused = 24,
}

impl FrameKind {
    /// Decodes a kind byte; `None` for kinds this build does not know.
    #[must_use]
    pub fn from_u8(k: u8) -> Option<Self> {
        Some(match k {
            1 => Self::Open,
            2 => Self::Push,
            3 => Self::Finalize,
            4 => Self::Snapshot,
            5 => Self::Restore,
            6 => Self::Stats,
            16 => Self::Opened,
            17 => Self::Ack,
            18 => Self::Final,
            19 => Self::SnapshotData,
            20 => Self::SnapshotDone,
            21 => Self::Restored,
            22 => Self::StatsReply,
            23 => Self::Busy,
            24 => Self::Refused,
            _ => return None,
        })
    }

    /// Whether this kind is a client request (as opposed to a reply).
    #[must_use]
    pub fn is_request(self) -> bool {
        (self as u8) < 16
    }
}

/// Why a frame was refused. Refusals are final: retrying the identical
/// frame cannot succeed (contrast [`BusyCode`], which asks for a retry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RefuseCode {
    /// The kind byte is not a request this build understands.
    UnknownKind = 0,
    /// The frame's version field differs from [`VERSION`].
    BadVersion = 1,
    /// The frame's CRC-32 did not match; the connection is closed because
    /// stream integrity can no longer be trusted.
    BadCrc = 2,
    /// The declared payload length exceeds the server's cap; the
    /// connection is closed rather than reading the announced bytes.
    Oversize = 3,
    /// The payload did not decode as the kind requires.
    BadPayload = 4,
    /// The frame did not start with the `TRMP` magic.
    BadMagic = 5,
    /// The session id is not open (or is already finalizing).
    UnknownSession = 6,
    /// The session exists but belongs to a different tenant.
    WrongTenant = 7,
    /// The tenant is at its live-session cap.
    SessionLimit = 8,
    /// The session id is already open (or being restored).
    AlreadyOpen = 9,
    /// The point's timestamp is not strictly after the session's last
    /// accepted point (the engine would silently drop it, desyncing acks,
    /// so the edge refuses it instead).
    LatePoint = 10,
    /// The snapshot payload decoded but the engine could not restore it
    /// (e.g. it was produced by a different matcher).
    RestoreFailed = 11,
    /// The server is mid-drain for a rolling restart; reconnect to the
    /// successor.
    Draining = 12,
}

impl RefuseCode {
    /// Decodes a refusal byte.
    #[must_use]
    pub fn from_u8(c: u8) -> Option<Self> {
        Some(match c {
            0 => Self::UnknownKind,
            1 => Self::BadVersion,
            2 => Self::BadCrc,
            3 => Self::Oversize,
            4 => Self::BadPayload,
            5 => Self::BadMagic,
            6 => Self::UnknownSession,
            7 => Self::WrongTenant,
            8 => Self::SessionLimit,
            9 => Self::AlreadyOpen,
            10 => Self::LatePoint,
            11 => Self::RestoreFailed,
            12 => Self::Draining,
            _ => return None,
        })
    }
}

/// Why a push was turned away *for now* — all retryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BusyCode {
    /// The tenant's pending queue is full.
    QueueFull = 0,
    // Code 1 stays unassigned: version-1 peers read it as a rate-limit
    // refusal, so reusing it would change what an old reading means.
    /// [`StreamEngine::push`] hit its `push_timeout_s` deadline (worker
    /// queues stayed full) — the deadline surfaces here instead of a
    /// silent drop.
    PushTimeout = 2,
    /// The connection's inflight window (accepted-but-unacked pushes) is
    /// full; read some acks first.
    Window = 3,
}

impl BusyCode {
    /// Decodes a busy byte.
    #[must_use]
    pub fn from_u8(c: u8) -> Option<Self> {
        Some(match c {
            0 => Self::QueueFull,
            2 => Self::PushTimeout,
            3 => Self::Window,
            _ => return None,
        })
    }
}

/// One decoded wire frame. `kind` stays a raw byte so the server can give
/// unknown kinds a typed refusal instead of failing the decode.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Protocol version the sender speaks.
    pub version: u16,
    /// Frame kind byte (see [`FrameKind`]).
    pub kind: u8,
    /// Tenant the frame acts for.
    pub tenant: u64,
    /// Client-visible session id the frame acts on.
    pub session: u64,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A version-[`VERSION`] frame.
    #[must_use]
    pub fn new(kind: FrameKind, tenant: u64, session: u64, payload: Vec<u8>) -> Self {
        Self { version: VERSION, kind: kind as u8, tenant, session, payload }
    }

    /// Encodes the frame: envelope, payload, trailing CRC-32.
    ///
    /// # Errors
    /// [`SnapshotError::Oversize`] when the payload exceeds the `u32`
    /// length field.
    pub fn encode(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + 4);
        seal(&mut out, MAGIC, self.version, |out| {
            put_u8(out, self.kind);
            put_u64(out, self.tenant);
            put_u64(out, self.session);
            put_bytes(out, &self.payload)
        })?;
        Ok(out)
    }

    /// Decodes one complete frame from `buf`. Never panics: truncation,
    /// bad magic, checksum mismatch and structural damage each return
    /// their typed [`SnapshotError`], the checksum before any field is
    /// parsed. The version and kind fields are *not* validated here — the
    /// server answers those with typed refusals rather than failing the
    /// decode.
    pub fn decode(buf: &[u8]) -> Result<Self, SnapshotError> {
        if buf.len() < HEADER_LEN + 4 {
            return Err(SnapshotError::Truncated);
        }
        let (frame, _) = open(buf, MAGIC, Guard::Crc, |version, r| {
            let (kind, tenant, session) = (r.u8()?, r.u64()?, r.u64()?);
            let payload = r.bytes()?.to_vec();
            Ok::<_, SnapshotError>(Self { version, kind, tenant, session, payload })
        })?;
        Ok(frame)
    }
}

/// Reads a frame's fixed [`HEADER_LEN`]-byte prefix, taken off a socket
/// before the rest: its tenant and session (at fixed offsets, so even a
/// frame that fails validation gets its refusal addressed) and the length
/// of the whole frame — or [`SnapshotError::BadMagic`], then
/// [`SnapshotError::Oversize`] carrying the announced payload length when
/// it exceeds `max_payload`, so that neither is read or allocated for.
fn frame_head(
    header: &[u8; HEADER_LEN],
    max_payload: usize,
) -> (u64, u64, Result<usize, SnapshotError>) {
    let mut r = Reader::new(&header[4 + 2 + 1..]);
    let (Ok(tenant), Ok(session), Ok(len)) = (r.u64(), r.u64(), r.u32()) else {
        unreachable!("HEADER_LEN spans every fixed field")
    };
    let frame_len = Reader::new(header).magic(MAGIC).and_then(|()| match len as usize {
        len if len > max_payload => Err(SnapshotError::Oversize { len }),
        len => Ok(HEADER_LEN + len + 4),
    });
    (tenant, session, frame_len)
}

/// A parsed server reply — the typed view of a reply [`Frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The session is open.
    Opened {
        /// Session id echoed from the request.
        session: u64,
    },
    /// One accepted push was decoded.
    Ack {
        /// Session the point belonged to.
        session: u64,
        /// Zero-based index of the point within its session.
        seq: u64,
        /// Stabilized-prefix watermark after this point.
        stable_prefix: u64,
        /// Provisional match for the point, when one exists.
        provisional: Option<trmma_traj::types::MatchedPoint>,
    },
    /// A session finalized.
    Final {
        /// Session that ended.
        session: u64,
        /// Number of points the session decoded.
        points: u64,
        /// The final matched points and stitched route — bitwise identical
        /// to the offline decode of the same points.
        result: trmma_traj::MatchResult,
    },
    /// One drained session of a rolling restart.
    SnapshotData {
        /// Tenant that owns the session.
        tenant: u64,
        /// Client-visible session id.
        session: u64,
        /// The session's portable state; feed to [`FrameKind::Restore`].
        snapshot: SessionSnapshot,
    },
    /// The snapshot stream is complete.
    SnapshotDone {
        /// How many sessions were drained.
        count: u64,
    },
    /// A session was rehydrated.
    Restored {
        /// Session id echoed from the request.
        session: u64,
    },
    /// The server's counters.
    Stats(Box<ServeStats>),
    /// Typed backpressure; retry later.
    Busy {
        /// Session the request acted on.
        session: u64,
        /// Why the request must wait.
        code: BusyCode,
    },
    /// Typed refusal; the same frame will never succeed.
    Refused {
        /// Session the request acted on.
        session: u64,
        /// Why the request was refused.
        code: RefuseCode,
        /// Kind-specific detail (offending version, kind byte, length…).
        detail: u32,
    },
}

impl Reply {
    /// Parses a reply frame into its typed form.
    ///
    /// # Errors
    /// [`SnapshotError::BadVersion`] for a version other than [`VERSION`]
    /// (another version may lay a payload out differently), and
    /// [`SnapshotError`] when the frame is not a reply kind or its payload
    /// does not decode.
    pub fn parse(f: &Frame) -> Result<Self, SnapshotError> {
        if f.version != VERSION {
            return Err(SnapshotError::BadVersion(f.version));
        }
        let kind =
            FrameKind::from_u8(f.kind).ok_or(SnapshotError::Malformed("unknown reply kind"))?;
        let mut r = Reader::new(&f.payload);
        let reply = match kind {
            FrameKind::Opened => Self::Opened { session: f.session },
            FrameKind::Ack => {
                let seq = r.u64()?;
                let stable_prefix = r.u64()?;
                let provisional = match r.u8()? {
                    0 => None,
                    1 => Some(r.matched()?),
                    _ => return Err(SnapshotError::Malformed("ack provisional flag")),
                };
                Self::Ack { session: f.session, seq, stable_prefix, provisional }
            }
            FrameKind::Final => {
                let points = r.u64()?;
                let result = read_match_result(&mut r)?;
                Self::Final { session: f.session, points, result }
            }
            FrameKind::SnapshotData => {
                let snapshot = SessionSnapshot::decode(&f.payload)?;
                return Ok(Self::SnapshotData { tenant: f.tenant, session: f.session, snapshot });
            }
            FrameKind::SnapshotDone => Self::SnapshotDone { count: r.u64()? },
            FrameKind::Restored => Self::Restored { session: f.session },
            FrameKind::StatsReply => {
                return Ok(Self::Stats(Box::new(ServeStats::wire_decode(&f.payload)?)))
            }
            FrameKind::Busy => {
                let code =
                    BusyCode::from_u8(r.u8()?).ok_or(SnapshotError::Malformed("busy code"))?;
                Self::Busy { session: f.session, code }
            }
            FrameKind::Refused => {
                let code =
                    RefuseCode::from_u8(r.u8()?).ok_or(SnapshotError::Malformed("refuse code"))?;
                let detail = r.u32()?;
                Self::Refused { session: f.session, code, detail }
            }
            _ => return Err(SnapshotError::Malformed("not a reply kind")),
        };
        r.expect_end()?;
        Ok(reply)
    }
}

/// Per-tenant slice of [`ServeStats`] — the fairness evidence: a
/// queue-capped tenant shows up here without moving any other tenant's
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantLoad {
    /// Tenant id.
    pub tenant: u64,
    /// Points accepted into the tenant's queue.
    pub points: u64,
    /// Pushes bounced by the tenant's full queue.
    pub queue_full: u64,
    /// Frames refused on this tenant's sessions.
    pub refused: u64,
    /// Sessions currently live.
    pub live_sessions: u64,
}

impl TenantLoad {
    /// The fields in wire order.
    fn fields_mut(&mut self) -> [&mut u64; 5] {
        [
            &mut self.tenant,
            &mut self.points,
            &mut self.queue_full,
            &mut self.refused,
            &mut self.live_sessions,
        ]
    }
}

/// Counter block of one [`Server`], in the style of
/// [`RouterStats`](crate::RouterStats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed frames read.
    pub frames_in: u64,
    /// Reply frames written.
    pub frames_out: u64,
    /// Bytes read (well-formed frames only).
    pub bytes_in: u64,
    /// Bytes written.
    pub bytes_out: u64,
    /// Points accepted into the engine.
    pub points_accepted: u64,
    /// Ack replies sent.
    pub acks_out: u64,
    /// Busy replies sent (all codes).
    pub busy: u64,
    /// Refused replies sent (all codes).
    pub refused: u64,
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions finalized (explicitly or by idle eviction).
    pub sessions_finalized: u64,
    /// Sessions rehydrated through [`FrameKind::Restore`].
    pub sessions_restored: u64,
    /// Sessions streamed out through [`FrameKind::Snapshot`].
    pub snapshots_out: u64,
    /// Frames dropped for CRC mismatch.
    pub crc_rejected: u64,
    /// Frames dropped for an oversized length prefix.
    pub oversize_rejected: u64,
    /// Frames with a kind byte this build does not understand.
    pub unknown_kind: u64,
    /// Frames with a version other than [`VERSION`].
    pub bad_version: u64,
    /// Frames touching a session owned by a different tenant.
    pub wrong_tenant: u64,
    /// Points refused for a non-advancing timestamp.
    pub late_refused: u64,
    /// Connections closed for stalling mid-frame (slow-loris guard).
    pub slow_loris_closed: u64,
    /// Per-tenant load, sorted by tenant id.
    pub tenants: Vec<TenantLoad>,
}

impl ServeStats {
    /// The counters in wire order — one list, so the encoder and the
    /// decoder cannot disagree on it.
    fn counters_mut(&mut self) -> [&mut u64; 20] {
        [
            &mut self.connections,
            &mut self.frames_in,
            &mut self.frames_out,
            &mut self.bytes_in,
            &mut self.bytes_out,
            &mut self.points_accepted,
            &mut self.acks_out,
            &mut self.busy,
            &mut self.refused,
            &mut self.sessions_opened,
            &mut self.sessions_finalized,
            &mut self.sessions_restored,
            &mut self.snapshots_out,
            &mut self.crc_rejected,
            &mut self.oversize_rejected,
            &mut self.unknown_kind,
            &mut self.bad_version,
            &mut self.wrong_tenant,
            &mut self.late_refused,
            &mut self.slow_loris_closed,
        ]
    }

    /// Encodes the counters for a [`FrameKind::StatsReply`] payload.
    #[must_use]
    pub fn wire_encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 * 8 + self.tenants.len() * 40);
        let mut counters = Self { tenants: Vec::new(), ..*self };
        for v in counters.counters_mut() {
            put_u64(&mut out, *v);
        }
        put_u64(&mut out, self.tenants.len() as u64);
        for mut t in self.tenants.iter().copied() {
            for v in t.fields_mut() {
                put_u64(&mut out, *v);
            }
        }
        out
    }

    /// Decodes counters written by [`ServeStats::wire_encode`].
    ///
    /// # Errors
    /// [`SnapshotError`] on truncated or malformed input.
    pub fn wire_decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let mut s = Self::default();
        for v in s.counters_mut() {
            *v = r.u64()?;
        }
        let n = r.seq_len(40)?;
        s.tenants.reserve(n);
        for _ in 0..n {
            let mut t = TenantLoad::default();
            for v in t.fields_mut() {
                *v = r.u64()?;
            }
            s.tenants.push(t);
        }
        r.expect_end()?;
        Ok(s)
    }

    /// The tenant's slice of the counters, if it has been seen.
    #[must_use]
    pub fn tenant(&self, tenant: u64) -> Option<&TenantLoad> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// Tuning knobs of one [`Server`]. Start from `default()` and chain.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; `"127.0.0.1:0"` picks an ephemeral port.
    pub addr: String,
    /// Options of the underlying [`StreamEngine`].
    pub stream: StreamOptions,
    /// Live-session cap per tenant.
    pub max_sessions_per_tenant: usize,
    /// Bound of each tenant's pending-point queue.
    pub tenant_queue: usize,
    /// Bound of each connection's accepted-but-unacked push window.
    pub inflight_window: usize,
    /// Per-frame read deadline: a connection stalled this long mid-frame
    /// is closed (slow-loris guard); one idle this long between frames is
    /// reaped (its sessions stay live).
    pub read_timeout_s: f64,
    /// Largest payload the server will read; a bigger declared length is
    /// refused without reading it.
    pub max_payload: usize,
    /// Seeded chaos for the engine (tests): see [`FaultPlan`].
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            stream: StreamOptions::with_threads(2).idle_timeout_s(0.0),
            max_sessions_per_tenant: 256,
            tenant_queue: 1024,
            inflight_window: 64,
            read_timeout_s: 10.0,
            max_payload: 1 << 20,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// Sets the listen address.
    #[must_use]
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Sets the engine options.
    #[must_use]
    pub fn stream(mut self, stream: StreamOptions) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the per-tenant live-session cap.
    #[must_use]
    pub fn max_sessions_per_tenant(mut self, n: usize) -> Self {
        self.max_sessions_per_tenant = n;
        self
    }

    /// Sets the per-tenant pending-queue bound.
    #[must_use]
    pub fn tenant_queue(mut self, n: usize) -> Self {
        self.tenant_queue = n;
        self
    }

    /// Sets the per-connection inflight window.
    #[must_use]
    pub fn inflight_window(mut self, n: usize) -> Self {
        self.inflight_window = n;
        self
    }

    /// Sets the per-frame read deadline in seconds.
    #[must_use]
    pub fn read_timeout_s(mut self, s: f64) -> Self {
        self.read_timeout_s = s;
        self
    }

    /// Sets the payload size cap.
    #[must_use]
    pub fn max_payload(mut self, n: usize) -> Self {
        self.max_payload = n;
        self
    }

    /// Injects a seeded chaos plan into the engine (tests).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    points_accepted: AtomicU64,
    acks_out: AtomicU64,
    busy: AtomicU64,
    refused: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_finalized: AtomicU64,
    sessions_restored: AtomicU64,
    snapshots_out: AtomicU64,
    crc_rejected: AtomicU64,
    oversize_rejected: AtomicU64,
    unknown_kind: AtomicU64,
    bad_version: AtomicU64,
    wrong_tenant: AtomicU64,
    late_refused: AtomicU64,
    slow_loris_closed: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

type ReplyTx = Sender<Frame>;

/// One live client session as the server tracks it.
struct SessionEntry {
    tenant: u64,
    engine_sid: SessionId,
    /// Timestamp of the last admitted point; `NEG_INFINITY` before any.
    last_t: f64,
    /// Set once Finalize is accepted; later pushes are refused.
    closing: bool,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<Pending>,
    live_sessions: u64,
    points: u64,
    queue_full: u64,
    refused: u64,
}

enum PendingKind {
    Point {
        p: GpsPoint,
        /// The session's `last_t` watermark before this point was
        /// admitted. If the engine push times out, the watermark rolls
        /// back to this so retrying the identical point can succeed —
        /// a retryable `Busy` must never turn into a final `LatePoint`.
        prev_t: f64,
    },
    Finish,
}

/// One admitted-but-not-yet-pushed command in a tenant queue.
struct Pending {
    engine_sid: SessionId,
    client_sid: u64,
    tenant: u64,
    kind: PendingKind,
    reply: ReplyTx,
    window: Arc<AtomicUsize>,
}

/// One accepted push awaiting its engine `Update` event.
struct PendingAck {
    /// The point's index within its session: the `seq` of its `Update`.
    seq: usize,
    client_sid: u64,
    tenant: u64,
    reply: ReplyTx,
    window: Arc<AtomicUsize>,
}

/// One engine session's accepted pushes still awaiting their `Update`,
/// oldest first, and the `seq` the next accepted push will get.
#[derive(Default)]
struct AckQueue {
    next_seq: usize,
    waiting: VecDeque<PendingAck>,
}

impl AckQueue {
    /// The waiter an `Update` numbered `seq` answers: the oldest, if its
    /// `seq` matches. After a worker panic the engine's journal replay
    /// re-emits `Update`s the client already had; their `seq` is below the
    /// oldest waiter's, and they answer nothing.
    fn answer(&mut self, seq: usize) -> Option<PendingAck> {
        if self.waiting.front()?.seq == seq {
            self.waiting.pop_front()
        } else {
            None
        }
    }
}

struct FinWaiter {
    client_sid: u64,
    tenant: u64,
    reply: ReplyTx,
}

enum Control {
    Snapshot { tenant: u64, session: u64, reply: ReplyTx },
    Restore { snap: SessionSnapshot, tenant: u64, client_sid: u64, reply: ReplyTx },
}

struct Registry {
    next_sid: SessionId,
    sessions: HashMap<u64, SessionEntry>,
    by_engine: HashMap<SessionId, u64>,
    tenants: BTreeMap<u64, TenantState>,
    acks: HashMap<SessionId, AckQueue>,
    fins: HashMap<SessionId, FinWaiter>,
    draining: bool,
}

impl Registry {
    fn new() -> Self {
        Self {
            next_sid: 1,
            sessions: HashMap::new(),
            by_engine: HashMap::new(),
            tenants: BTreeMap::new(),
            acks: HashMap::new(),
            fins: HashMap::new(),
            draining: false,
        }
    }
}

/// Everything the reader threads and the pump share. The engine itself is
/// deliberately *not* here: its event receiver is single-consumer, so the
/// pump thread owns it exclusively and readers talk to it only through the
/// tenant queues and the control queue — ringing `bell`, the engine's
/// doorbell, after each enqueue.
struct Shared<M: OnlineMatcher + 'static> {
    cfg: ServeConfig,
    matcher: Arc<M>,
    reg: Mutex<Registry>,
    control: Mutex<VecDeque<Control>>,
    counters: Arc<Counters>,
    shutdown: AtomicBool,
    bell: Bell,
}

fn send_reply(tx: &ReplyTx, frame: Frame) {
    // A dead connection is fine: the writer is gone, the reply is moot.
    let _ = tx.send(frame);
}

fn refused_frame(tenant: u64, session: u64, code: RefuseCode, detail: u32) -> Frame {
    let mut payload = Vec::with_capacity(5);
    put_u8(&mut payload, code as u8);
    put_u32(&mut payload, detail);
    Frame::new(FrameKind::Refused, tenant, session, payload)
}

fn busy_frame(tenant: u64, session: u64, code: BusyCode) -> Frame {
    Frame::new(FrameKind::Busy, tenant, session, vec![code as u8])
}

/// Encodes a [`FrameKind::Push`] payload (one GPS point).
#[must_use]
pub fn push_payload(p: GpsPoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    put_gps(&mut out, p);
    out
}

/// A bounced [`Server`]: owns the listener, the tenant-fair pump, and the
/// shared [`StreamEngine`]; dropping (or [`Server::stop`]) shuts all of it
/// down. Build with [`Server::start`].
pub struct Server<M: OnlineMatcher + 'static> {
    addr: SocketAddr,
    shared: Arc<Shared<M>>,
    accept: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl<M: OnlineMatcher + 'static> Server<M> {
    /// Binds `cfg.addr` and starts serving `matcher` behind a fresh
    /// [`StreamEngine`].
    ///
    /// # Errors
    /// Propagates the bind failure.
    ///
    /// # Panics
    /// Like [`StreamEngine::new`], if `cfg.stream.checkpoint_every` is `0`.
    pub fn start(matcher: Arc<M>, cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let engine = match cfg.faults {
            Some(plan) => StreamEngine::with_faults(matcher.clone(), cfg.stream, plan),
            None => StreamEngine::new(matcher.clone(), cfg.stream),
        };
        let shared = Arc::new(Shared {
            cfg,
            matcher,
            reg: Mutex::new(Registry::new()),
            control: Mutex::new(VecDeque::new()),
            counters: Arc::new(Counters::default()),
            shutdown: AtomicBool::new(false),
            bell: engine.waker(),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let pump = {
            let shared = shared.clone();
            std::thread::spawn(move || pump_loop(&shared, &engine))
        };
        Ok(Self { addr, shared, accept: Some(accept), pump: Some(pump) })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        collect_stats(&self.shared)
    }

    /// Stops accepting, stops the pump, and drops the engine. Sessions not
    /// snapshotted are lost — drain with [`FrameKind::Snapshot`] first for
    /// a zero-loss bounce.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.bell.ring();
        if let Some(h) = self.accept.take() {
            // The accept thread blocks in `accept`: a connection of our own
            // wakes it to see the flag (loopback when bound to an
            // unspecified address). If even that fails, leave the thread
            // blocked rather than hang here.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                let ip = if wake.is_ipv4() {
                    Ipv4Addr::LOCALHOST.into()
                } else {
                    Ipv6Addr::LOCALHOST.into()
                };
                wake.set_ip(ip);
            }
            if TcpStream::connect(wake).is_ok() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

impl<M: OnlineMatcher + 'static> Drop for Server<M> {
    fn drop(&mut self) {
        self.halt();
    }
}

fn collect_stats<M: OnlineMatcher + 'static>(shared: &Shared<M>) -> ServeStats {
    let c = &shared.counters;
    let mut s = ServeStats {
        connections: c.connections.load(Ordering::Relaxed),
        frames_in: c.frames_in.load(Ordering::Relaxed),
        frames_out: c.frames_out.load(Ordering::Relaxed),
        bytes_in: c.bytes_in.load(Ordering::Relaxed),
        bytes_out: c.bytes_out.load(Ordering::Relaxed),
        points_accepted: c.points_accepted.load(Ordering::Relaxed),
        acks_out: c.acks_out.load(Ordering::Relaxed),
        busy: c.busy.load(Ordering::Relaxed),
        refused: c.refused.load(Ordering::Relaxed),
        sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
        sessions_finalized: c.sessions_finalized.load(Ordering::Relaxed),
        sessions_restored: c.sessions_restored.load(Ordering::Relaxed),
        snapshots_out: c.snapshots_out.load(Ordering::Relaxed),
        crc_rejected: c.crc_rejected.load(Ordering::Relaxed),
        oversize_rejected: c.oversize_rejected.load(Ordering::Relaxed),
        unknown_kind: c.unknown_kind.load(Ordering::Relaxed),
        bad_version: c.bad_version.load(Ordering::Relaxed),
        wrong_tenant: c.wrong_tenant.load(Ordering::Relaxed),
        late_refused: c.late_refused.load(Ordering::Relaxed),
        slow_loris_closed: c.slow_loris_closed.load(Ordering::Relaxed),
        tenants: Vec::new(),
    };
    let reg = shared.reg.lock().expect("registry poisoned");
    for (&tenant, t) in &reg.tenants {
        s.tenants.push(TenantLoad {
            tenant,
            points: t.points,
            queue_full: t.queue_full,
            refused: t.refused,
            live_sessions: t.live_sessions,
        });
    }
    s
}

fn accept_loop<M: OnlineMatcher + 'static>(listener: &TcpListener, shared: &Arc<Shared<M>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                bump(&shared.counters.connections);
                let shared = shared.clone();
                std::thread::spawn(move || connection_loop(stream, &shared));
            }
            // Only a failed accept pauses, so descriptor exhaustion cannot
            // spin this thread; otherwise it waits in `accept` alone.
            Err(_) => std::thread::park_timeout(Duration::from_millis(2)),
        }
    }
}

enum ReadFull {
    Full,
    /// Peer closed mid-span or between frames.
    Eof,
    /// Deadline passed; `got` bytes of the wanted span had arrived.
    TimedOut {
        got: usize,
    },
    /// Server shutdown or hard I/O error.
    Abort,
}

/// Reads exactly `buf.len()` bytes in short timeout slices so the thread
/// notices server shutdown promptly and can tell an idle peer (`got == 0`)
/// from a slow-loris stall mid-frame (`got > 0`).
fn read_full<M: OnlineMatcher + 'static>(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared<M>,
) -> ReadFull {
    let deadline = Instant::now() + Duration::from_secs_f64(shared.cfg.read_timeout_s.max(0.05));
    let mut got = 0;
    while got < buf.len() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return ReadFull::Abort;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => return ReadFull::Eof,
            Ok(n) => got += n,
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    if Instant::now() > deadline {
                        return ReadFull::TimedOut { got };
                    }
                }
                std::io::ErrorKind::Interrupted => {}
                _ => return ReadFull::Abort,
            },
        }
    }
    ReadFull::Full
}

fn connection_loop<M: OnlineMatcher + 'static>(stream: TcpStream, shared: &Arc<Shared<M>>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = channel::<Frame>();
    let writer = {
        let counters = shared.counters.clone();
        std::thread::spawn(move || writer_loop(write_half, &rx, &counters))
    };
    let window = Arc::new(AtomicUsize::new(0));
    let mut stream = stream;
    loop {
        let mut header = [0u8; HEADER_LEN];
        match read_full(&mut stream, &mut header, shared) {
            ReadFull::Full => {}
            ReadFull::Eof | ReadFull::Abort | ReadFull::TimedOut { got: 0 } => break,
            ReadFull::TimedOut { .. } => {
                // Bytes of a frame arrived, then the peer stalled: the
                // slow-loris guard closes only this connection — every
                // other tenant keeps its own reader thread.
                bump(&shared.counters.slow_loris_closed);
                break;
            }
        }
        let (tenant, session, frame_len) = frame_head(&header, shared.cfg.max_payload);
        let frame_len = match frame_len {
            Ok(n) => n,
            Err(SnapshotError::Oversize { len }) => {
                // Refuse on the declared length alone — the announced bytes
                // are never read, so a hostile length cannot tie up memory.
                bump(&shared.counters.oversize_rejected);
                let detail = u32::try_from(len).unwrap_or(u32::MAX);
                refuse(shared, &tx, tenant, session, RefuseCode::Oversize, detail);
                break;
            }
            Err(_) => {
                refuse(shared, &tx, tenant, session, RefuseCode::BadMagic, 0);
                break;
            }
        };
        let mut frame_buf = vec![0u8; frame_len];
        frame_buf[..HEADER_LEN].copy_from_slice(&header);
        match read_full(&mut stream, &mut frame_buf[HEADER_LEN..], shared) {
            ReadFull::Full => {}
            ReadFull::Eof | ReadFull::Abort => break,
            ReadFull::TimedOut { .. } => {
                bump(&shared.counters.slow_loris_closed);
                break;
            }
        }
        match Frame::decode(&frame_buf) {
            Ok(frame) => {
                bump(&shared.counters.frames_in);
                shared.counters.bytes_in.fetch_add(frame_buf.len() as u64, Ordering::Relaxed);
                if !dispatch(shared, &tx, &window, frame) {
                    break;
                }
            }
            Err(SnapshotError::Checksum) => {
                // Stream integrity is gone; refuse and resynchronize by
                // closing rather than guessing at frame boundaries.
                bump(&shared.counters.crc_rejected);
                refuse(shared, &tx, tenant, session, RefuseCode::BadCrc, 0);
                break;
            }
            Err(_) => {
                refuse(shared, &tx, tenant, session, RefuseCode::BadPayload, 0);
                break;
            }
        }
    }
    drop(tx);
    let _ = stream.shutdown(Shutdown::Read);
    let _ = writer.join();
}

fn writer_loop(mut stream: TcpStream, rx: &Receiver<Frame>, counters: &Counters) {
    while let Ok(frame) = rx.recv() {
        let Ok(bytes) = frame.encode() else { continue };
        if stream.write_all(&bytes).is_err() {
            break;
        }
        bump(&counters.frames_out);
        counters.bytes_out.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
    let _ = stream.shutdown(Shutdown::Write);
}

fn refuse<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    tx: &ReplyTx,
    tenant: u64,
    session: u64,
    code: RefuseCode,
    detail: u32,
) {
    bump(&shared.counters.refused);
    send_reply(tx, refused_frame(tenant, session, code, detail));
}

fn busy<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    tx: &ReplyTx,
    tenant: u64,
    session: u64,
    code: BusyCode,
) {
    bump(&shared.counters.busy);
    send_reply(tx, busy_frame(tenant, session, code));
}

/// Handles one well-formed frame; returns `false` to close the connection.
fn dispatch<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    tx: &ReplyTx,
    window: &Arc<AtomicUsize>,
    frame: Frame,
) -> bool {
    let (tenant, session) = (frame.tenant, frame.session);
    if frame.version != VERSION {
        bump(&shared.counters.bad_version);
        refuse(shared, tx, tenant, session, RefuseCode::BadVersion, u32::from(frame.version));
        return true;
    }
    let kind = FrameKind::from_u8(frame.kind).filter(|k| k.is_request());
    let Some(kind) = kind else {
        bump(&shared.counters.unknown_kind);
        refuse(shared, tx, tenant, session, RefuseCode::UnknownKind, u32::from(frame.kind));
        return true;
    };
    match kind {
        FrameKind::Open => handle_open(shared, tx, tenant, session),
        FrameKind::Push => handle_push(shared, tx, window, tenant, session, &frame.payload),
        FrameKind::Finalize => handle_finalize(shared, tx, tenant, session),
        FrameKind::Snapshot => {
            // Quiesce admissions immediately; the pump performs the drain
            // so it serializes with in-flight pushes and restores.
            shared.reg.lock().expect("registry poisoned").draining = true;
            enqueue_control(shared, Control::Snapshot { tenant, session, reply: tx.clone() });
        }
        FrameKind::Restore => match SessionSnapshot::decode(&frame.payload) {
            Ok(snap) => {
                let ctl = Control::Restore { snap, tenant, client_sid: session, reply: tx.clone() };
                enqueue_control(shared, ctl);
            }
            Err(_) => refuse(shared, tx, tenant, session, RefuseCode::BadPayload, 0),
        },
        FrameKind::Stats => {
            let payload = collect_stats(shared).wire_encode();
            send_reply(tx, Frame::new(FrameKind::StatsReply, tenant, session, payload));
        }
        _ => unreachable!("is_request filtered replies"),
    }
    true
}

fn enqueue_control<M: OnlineMatcher + 'static>(shared: &Shared<M>, ctl: Control) {
    shared.control.lock().expect("control poisoned").push_back(ctl);
    shared.bell.ring();
}

fn handle_open<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    tx: &ReplyTx,
    tenant: u64,
    session: u64,
) {
    let mut reg = shared.reg.lock().expect("registry poisoned");
    let reserved = if reg.draining {
        Err(RefuseCode::Draining)
    } else {
        reserve_session(shared, &mut reg, tenant, session, f64::NEG_INFINITY, false)
    };
    let engine_sid = match reserved {
        Ok(sid) => sid,
        Err(code) => {
            drop(reg);
            refuse(shared, tx, tenant, session, code, 0);
            return;
        }
    };
    reg.by_engine.insert(engine_sid, session);
    reg.acks.insert(engine_sid, AckQueue::default());
    drop(reg);
    bump(&shared.counters.sessions_opened);
    send_reply(tx, Frame::new(FrameKind::Opened, tenant, session, Vec::new()));
}

/// Registers client id `session` for `tenant` under a fresh engine id, if
/// the id is free and the tenant is below its live-session cap.
fn reserve_session<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    reg: &mut Registry,
    tenant: u64,
    session: u64,
    last_t: f64,
    closing: bool,
) -> Result<SessionId, RefuseCode> {
    if reg.sessions.contains_key(&session) {
        return Err(RefuseCode::AlreadyOpen);
    }
    let t = reg.tenants.entry(tenant).or_default();
    if t.live_sessions as usize >= shared.cfg.max_sessions_per_tenant {
        t.refused += 1;
        return Err(RefuseCode::SessionLimit);
    }
    t.live_sessions += 1;
    let engine_sid = reg.next_sid;
    reg.next_sid += 1;
    reg.sessions.insert(session, SessionEntry { tenant, engine_sid, last_t, closing });
    Ok(engine_sid)
}

fn handle_push<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    tx: &ReplyTx,
    window: &Arc<AtomicUsize>,
    tenant: u64,
    session: u64,
    payload: &[u8],
) {
    let point = {
        let mut r = Reader::new(payload);
        match r.gps().and_then(|p| r.expect_end().map(|()| p)) {
            Ok(p) => p,
            Err(_) => {
                refuse(shared, tx, tenant, session, RefuseCode::BadPayload, 0);
                return;
            }
        }
    };
    let mut reg = shared.reg.lock().expect("registry poisoned");
    if let Some(code) = session_refusal(shared, &mut reg, tenant, session) {
        drop(reg);
        refuse(shared, tx, tenant, session, code, 0);
        return;
    }
    let entry = &reg.sessions[&session];
    // A non-finite coordinate would reach the decoder, and a NaN `t` would
    // disable the late-point check below for the rest of the session.
    let bad = if !trmma_traj::is_finite_point(&point) {
        Some(RefuseCode::BadPayload)
    } else if point.t <= entry.last_t {
        bump(&shared.counters.late_refused);
        Some(RefuseCode::LatePoint)
    } else {
        None
    };
    if let Some(code) = bad {
        if let Some(t) = reg.tenants.get_mut(&tenant) {
            t.refused += 1;
        }
        drop(reg);
        refuse(shared, tx, tenant, session, code, 0);
        return;
    }
    if window.load(Ordering::Acquire) >= shared.cfg.inflight_window {
        drop(reg);
        busy(shared, tx, tenant, session, BusyCode::Window);
        return;
    }
    let engine_sid = entry.engine_sid;
    let prev_t = entry.last_t;
    let t = reg.tenants.entry(tenant).or_default();
    if t.queue.len() >= shared.cfg.tenant_queue {
        t.queue_full += 1;
        drop(reg);
        busy(shared, tx, tenant, session, BusyCode::QueueFull);
        return;
    }
    t.points += 1;
    t.queue.push_back(Pending {
        engine_sid,
        client_sid: session,
        tenant,
        kind: PendingKind::Point { p: point, prev_t },
        reply: tx.clone(),
        window: window.clone(),
    });
    window.fetch_add(1, Ordering::AcqRel);
    reg.sessions.get_mut(&session).expect("checked above").last_t = point.t;
    drop(reg);
    shared.bell.ring();
}

/// Why `tenant` may not push to or finalize `session` right now, if it
/// may not: the session is not open (or already finalizing), belongs to
/// another tenant, or the server is draining.
fn session_refusal<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    reg: &mut Registry,
    tenant: u64,
    session: u64,
) -> Option<RefuseCode> {
    let Some(entry) = reg.sessions.get(&session) else {
        return Some(RefuseCode::UnknownSession);
    };
    if entry.tenant != tenant {
        bump(&shared.counters.wrong_tenant);
        // Account the refusal against the probing tenant's fairness row
        // only if that tenant already exists: tenant ids are
        // client-asserted, so minting registry state for arbitrary probed
        // ids would let one connection grow the tenant map (and the
        // ServeStats payload) without bound.
        if let Some(t) = reg.tenants.get_mut(&tenant) {
            t.refused += 1;
        }
        return Some(RefuseCode::WrongTenant);
    }
    if entry.closing {
        return Some(RefuseCode::UnknownSession);
    }
    reg.draining.then_some(RefuseCode::Draining)
}

fn handle_finalize<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    tx: &ReplyTx,
    tenant: u64,
    session: u64,
) {
    let mut reg = shared.reg.lock().expect("registry poisoned");
    if let Some(code) = session_refusal(shared, &mut reg, tenant, session) {
        drop(reg);
        refuse(shared, tx, tenant, session, code, 0);
        return;
    }
    let entry = &reg.sessions[&session];
    let engine_sid = entry.engine_sid;
    if entry.last_t == f64::NEG_INFINITY {
        // No point was ever admitted, so the engine has no session to
        // finish; answer with the empty decode directly.
        reg.sessions.remove(&session);
        reg.by_engine.remove(&engine_sid);
        reg.acks.remove(&engine_sid);
        if let Some(t) = reg.tenants.get_mut(&tenant) {
            t.live_sessions = t.live_sessions.saturating_sub(1);
        }
        drop(reg);
        bump(&shared.counters.sessions_finalized);
        let empty = trmma_traj::MatchResult {
            matched: Vec::new(),
            route: trmma_traj::types::Route::default(),
        };
        send_reply(tx, final_frame(tenant, session, 0, &empty));
        return;
    }
    reg.sessions.get_mut(&session).expect("checked above").closing = true;
    let t = reg.tenants.get_mut(&tenant).expect("tenant exists for live session");
    t.queue.push_back(Pending {
        engine_sid,
        client_sid: session,
        tenant,
        kind: PendingKind::Finish,
        reply: tx.clone(),
        window: Arc::new(AtomicUsize::new(0)),
    });
    drop(reg);
    shared.bell.ring();
}

fn final_frame(tenant: u64, session: u64, points: u64, result: &trmma_traj::MatchResult) -> Frame {
    let mut payload = Vec::new();
    put_u64(&mut payload, points);
    trmma_traj::snapshot::put_match_result(&mut payload, result);
    Frame::new(FrameKind::Final, tenant, session, payload)
}

fn ack_frame(tenant: u64, session: u64, seq: u64, update: &trmma_traj::OnlineUpdate) -> Frame {
    let mut payload = Vec::with_capacity(17 + 20);
    put_u64(&mut payload, seq);
    put_u64(&mut payload, update.stable_prefix as u64);
    match update.provisional {
        Some(m) => {
            put_u8(&mut payload, 1);
            put_matched(&mut payload, &m);
        }
        None => put_u8(&mut payload, 0),
    }
    Frame::new(FrameKind::Ack, tenant, session, payload)
}

/// How long the idle pump blocks on the doorbell before it re-checks its
/// queues anyway. Every producer rings, so nothing waits this out in
/// correct operation; it only bounds the cost of a missed ring.
const PUMP_BACKSTOP: Duration = Duration::from_millis(100);

/// The tenant-fair pump: the only thread that feeds the engine. Each cycle
/// takes at most one pending command per tenant (round-robin fairness — a
/// hot tenant's backlog cannot starve a quiet tenant's single point),
/// delivers them, then converts engine events into Ack/Final replies.
///
/// A cycle that found no command blocks in [`StreamEngine::wait_events`]
/// (at most [`PUMP_BACKSTOP`]) until the engine's doorbell rings. Workers
/// ring after every event, reply and exit; readers ring after each tenant
/// or control enqueue; [`Server::stop`] rings to end the loop. The pump
/// checks every queue before it blocks, so a ring is never lost.
fn pump_loop<M: OnlineMatcher + 'static>(shared: &Arc<Shared<M>>, engine: &StreamEngine<M>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut worked = false;
        let ctl = shared.control.lock().expect("control poisoned").pop_front();
        if let Some(ctl) = ctl {
            worked = true;
            match ctl {
                Control::Snapshot { tenant, session, reply } => {
                    handle_snapshot(shared, engine, tenant, session, &reply);
                }
                Control::Restore { snap, tenant, client_sid, reply } => {
                    handle_restore(shared, engine, snap, tenant, client_sid, &reply);
                }
            }
        }
        for item in take_round(shared) {
            worked = true;
            deliver(shared, engine, item);
        }
        let wait = if worked { Duration::ZERO } else { PUMP_BACKSTOP };
        for ev in engine.wait_events(wait) {
            handle_event(shared, &ev);
        }
    }
}

/// Pops at most one pending command per tenant, in tenant-id order.
fn take_round<M: OnlineMatcher + 'static>(shared: &Shared<M>) -> Vec<Pending> {
    let mut reg = shared.reg.lock().expect("registry poisoned");
    let mut batch = Vec::new();
    for t in reg.tenants.values_mut() {
        if let Some(item) = t.queue.pop_front() {
            batch.push(item);
        }
    }
    batch
}

fn deliver<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    engine: &StreamEngine<M>,
    item: Pending,
) {
    match item.kind {
        PendingKind::Point { p, prev_t } => {
            // Blocks up to the engine's push_timeout_s; the deadline (or a
            // dead engine) surfaces as a typed Busy, never a silent drop.
            if engine.push(item.engine_sid, p) {
                bump(&shared.counters.points_accepted);
                let mut reg = shared.reg.lock().expect("registry poisoned");
                let acks = reg.acks.entry(item.engine_sid).or_default();
                acks.waiting.push_back(PendingAck {
                    seq: acks.next_seq,
                    client_sid: item.client_sid,
                    tenant: item.tenant,
                    reply: item.reply,
                    window: item.window,
                });
                acks.next_seq += 1;
            } else {
                item.window.fetch_sub(1, Ordering::AcqRel);
                // The engine never saw the point, so the admission
                // watermark must not keep its timestamp: otherwise
                // retrying after this *retryable* Busy would be refused
                // as a final LatePoint and the point would be lost.
                unadmit(shared, &item, p.t, prev_t);
                busy(shared, &item.reply, item.tenant, item.client_sid, BusyCode::PushTimeout);
            }
        }
        PendingKind::Finish => {
            let waiter =
                FinWaiter { client_sid: item.client_sid, tenant: item.tenant, reply: item.reply };
            shared.reg.lock().expect("registry poisoned").fins.insert(item.engine_sid, waiter);
            engine.finish(item.engine_sid);
        }
    }
}

/// Rolls the session's `last_t` admission watermark back past a point the
/// engine refused at its push deadline. Delivery is FIFO per tenant, so
/// if a later point of the same session is still queued, the watermark it
/// restores on failure is lowered instead (the session entry keeps the
/// latest *admitted* timestamp for ordering checks); otherwise the entry
/// itself rolls back so the client can retry the identical point.
fn unadmit<M: OnlineMatcher + 'static>(shared: &Shared<M>, item: &Pending, t: f64, prev_t: f64) {
    let mut reg = shared.reg.lock().expect("registry poisoned");
    if let Some(ts) = reg.tenants.get_mut(&item.tenant) {
        if let Some(next) = ts.queue.iter_mut().find(|q| q.engine_sid == item.engine_sid) {
            if let PendingKind::Point { prev_t: next_prev, .. } = &mut next.kind {
                *next_prev = prev_t;
            }
            return;
        }
    }
    if let Some(entry) = reg.sessions.get_mut(&item.client_sid) {
        if entry.engine_sid == item.engine_sid && entry.last_t == t {
            entry.last_t = prev_t;
        }
    }
}

fn handle_event<M: OnlineMatcher + 'static>(shared: &Shared<M>, ev: &StreamEvent) {
    match ev {
        StreamEvent::Update { session, seq, update, .. } => {
            let waiter = {
                let mut reg = shared.reg.lock().expect("registry poisoned");
                reg.acks.get_mut(session).and_then(|q| q.answer(*seq))
            };
            if let Some(w) = waiter {
                w.window.fetch_sub(1, Ordering::AcqRel);
                bump(&shared.counters.acks_out);
                send_reply(&w.reply, ack_frame(w.tenant, w.client_sid, *seq as u64, update));
            }
        }
        StreamEvent::Finalized { session, points, result, .. } => {
            let waiter = {
                let mut reg = shared.reg.lock().expect("registry poisoned");
                let waiter = reg.fins.remove(session);
                reg.acks.remove(session);
                if let Some(client) = reg.by_engine.remove(session) {
                    if let Some(entry) = reg.sessions.remove(&client) {
                        if let Some(t) = reg.tenants.get_mut(&entry.tenant) {
                            t.live_sessions = t.live_sessions.saturating_sub(1);
                        }
                    }
                }
                waiter
            };
            bump(&shared.counters.sessions_finalized);
            if let Some(w) = waiter {
                send_reply(&w.reply, final_frame(w.tenant, w.client_sid, *points as u64, result));
            }
        }
    }
}

/// Retires ack waiters whose `Update` events will never arrive (the
/// snapshot settle hit [`DRAIN_TIMEOUT`]): each waiter's inflight-window
/// slot is released — mirroring the PushTimeout cleanup in [`deliver`] —
/// and answered with a typed Busy, so the connection's window cannot leak
/// into a permanent `Busy(Window)` wall.
fn flush_ack_waiters<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    waiters: VecDeque<PendingAck>,
) {
    for w in waiters {
        w.window.fetch_sub(1, Ordering::AcqRel);
        bump(&shared.counters.busy);
        send_reply(&w.reply, busy_frame(w.tenant, w.client_sid, BusyCode::PushTimeout));
    }
}

/// Deadline for quiescing and draining on a [`FrameKind::Snapshot`].
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The rolling-restart drain: flush every queued command, wait for the
/// engine to settle (all acks and finals delivered), then stream one
/// `SnapshotData` per live session followed by `SnapshotDone`.
fn handle_snapshot<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    engine: &StreamEngine<M>,
    tenant: u64,
    session: u64,
    reply: &ReplyTx,
) {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    // Admissions were cut off when the Snapshot frame was dispatched
    // (draining = true); flush what was already admitted.
    loop {
        let batch = take_round(shared);
        if batch.is_empty() {
            break;
        }
        for item in batch {
            deliver(shared, engine, item);
        }
    }
    // Settle: every accepted push acked, every finalize answered. Each
    // such event rings the doorbell, which ends the wait.
    loop {
        let settled = {
            let reg = shared.reg.lock().expect("registry poisoned");
            reg.fins.is_empty() && reg.acks.values().all(|q| q.waiting.is_empty())
        };
        if settled || Instant::now() > deadline {
            break;
        }
        for ev in engine.wait_events(deadline.saturating_duration_since(Instant::now())) {
            handle_event(shared, &ev);
        }
    }
    let remaining = deadline.saturating_duration_since(Instant::now());
    let mut snaps = engine.drain_snapshots(remaining.max(Duration::from_millis(100)));
    let mut count: u64 = 0;
    {
        let mut reg = shared.reg.lock().expect("registry poisoned");
        // Sessions the engine never saw (opened, zero points admitted)
        // still count: synthesize a fresh-session snapshot so the
        // successor reopens them and no session is lost.
        for e in reg.sessions.values().filter(|e| e.last_t == f64::NEG_INFINITY) {
            let mut payload = Vec::new();
            shared.matcher.snapshot_session(&shared.matcher.begin_session(), &mut payload);
            let matcher = M::NAME.to_string();
            let last_t = f64::NEG_INFINITY;
            snaps.push(SessionSnapshot { session: e.engine_sid, matcher, seq: 0, last_t, payload });
        }
        for mut snap in snaps {
            let Some(client) = reg.by_engine.remove(&snap.session) else { continue };
            let Some(entry) = reg.sessions.remove(&client) else { continue };
            if let Some(q) = reg.acks.remove(&snap.session) {
                flush_ack_waiters(shared, q.waiting);
            }
            if let Some(t) = reg.tenants.get_mut(&entry.tenant) {
                t.live_sessions = t.live_sessions.saturating_sub(1);
            }
            snap.session = client;
            if let Ok(bytes) = snap.encode() {
                count += 1;
                bump(&shared.counters.snapshots_out);
                send_reply(reply, Frame::new(FrameKind::SnapshotData, entry.tenant, client, bytes));
            }
        }
        // Anything still waiting (sessions the engine did not hand back,
        // finalizes whose events never arrived) is retired with a typed
        // reply — window slots released, never a silent hang.
        let leftover: Vec<AckQueue> = std::mem::take(&mut reg.acks).into_values().collect();
        for q in leftover {
            flush_ack_waiters(shared, q.waiting);
        }
        let fins: Vec<FinWaiter> = std::mem::take(&mut reg.fins).into_values().collect();
        for w in fins {
            bump(&shared.counters.refused);
            send_reply(&w.reply, refused_frame(w.tenant, w.client_sid, RefuseCode::Draining, 0));
        }
        reg.draining = false;
    }
    let mut payload = Vec::with_capacity(8);
    put_u64(&mut payload, count);
    send_reply(reply, Frame::new(FrameKind::SnapshotDone, tenant, session, payload));
}

fn handle_restore<M: OnlineMatcher + 'static>(
    shared: &Shared<M>,
    engine: &StreamEngine<M>,
    snap: SessionSnapshot,
    tenant: u64,
    client_sid: u64,
    reply: &ReplyTx,
) {
    // Reserve the client id before releasing the lock: a concurrent Open
    // for the same id must see AlreadyOpen, not race the engine restore
    // below and clobber this entry. `closing: true` makes the placeholder
    // refuse pushes until the restore lands.
    let mut reg = shared.reg.lock().expect("registry poisoned");
    let reserved = reserve_session(shared, &mut reg, tenant, client_sid, snap.last_t, true);
    drop(reg);
    let engine_sid = match reserved {
        Ok(sid) => sid,
        Err(code) => return refuse(shared, reply, tenant, client_sid, code, 0),
    };
    let had_points = snap.seq > 0;
    // The engine numbers the restored session's updates on from here.
    let first_seq = usize::try_from(snap.seq).unwrap_or(usize::MAX);
    let mut snap = snap;
    snap.session = engine_sid;
    // A zero-point snapshot (session opened, nothing pushed) is not handed
    // to the engine — like Open, the engine first sees it on its first
    // push. Everything else rehydrates through the engine.
    let restored = if had_points { engine.restore(&[snap]).is_ok() } else { true };
    {
        let mut reg = shared.reg.lock().expect("registry poisoned");
        if !restored {
            reg.sessions.remove(&client_sid);
            if let Some(t) = reg.tenants.get_mut(&tenant) {
                t.live_sessions = t.live_sessions.saturating_sub(1);
            }
            drop(reg);
            refuse(shared, reply, tenant, client_sid, RefuseCode::RestoreFailed, 0);
            return;
        }
        reg.sessions.get_mut(&client_sid).expect("reserved above").closing = false;
        reg.by_engine.insert(engine_sid, client_sid);
        reg.acks.insert(engine_sid, AckQueue { next_seq: first_seq, waiting: VecDeque::new() });
    }
    bump(&shared.counters.sessions_restored);
    send_reply(reply, Frame::new(FrameKind::Restored, tenant, client_sid, Vec::new()));
}

/// Why a [`ServeClient`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::ErrorKind),
    /// A reply frame did not decode.
    Wire(SnapshotError),
    /// The server refused the request.
    Refused {
        /// Why.
        code: RefuseCode,
        /// Kind-specific detail word.
        detail: u32,
    },
    /// The server asked for a retry.
    Busy(BusyCode),
    /// The server answered with a reply the call did not expect.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(k) => write!(f, "socket error: {k:?}"),
            Self::Wire(e) => write!(f, "bad reply frame: {e}"),
            Self::Refused { code, detail } => write!(f, "refused: {code:?} (detail {detail})"),
            Self::Busy(code) => write!(f, "busy: {code:?}"),
            Self::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.kind())
    }
}

impl From<SnapshotError> for ClientError {
    fn from(e: SnapshotError) -> Self {
        Self::Wire(e)
    }
}

/// A blocking client of one [`Server`] connection, fixed to one tenant.
/// Replies the synchronous helpers skip over (acks racing a `finalize`,
/// for instance) are stashed in an inbox and handed out in order by
/// [`ServeClient::recv_reply`].
pub struct ServeClient {
    stream: TcpStream,
    tenant: u64,
    inbox: VecDeque<Reply>,
    max_payload: usize,
}

impl ServeClient {
    /// Connects to `addr` as `tenant`.
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: u64) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, tenant, inbox: VecDeque::new(), max_payload: 1 << 20 })
    }

    /// Caps the reply payload length this client will read (default 1 MiB,
    /// matching the server's request-side default). A reply declaring a
    /// larger payload fails with a typed [`SnapshotError::Oversize`]
    /// instead of allocating whatever length the peer announced. Raise it
    /// when expecting outsized `Final` results or session snapshots.
    #[must_use]
    pub fn max_payload(mut self, n: usize) -> Self {
        self.max_payload = n;
        self
    }

    /// The tenant this connection speaks for.
    #[must_use]
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Sends one raw frame (any version, kind, tenant) — the adversarial
    /// tests' hatch; typed helpers below cover the normal protocol.
    ///
    /// # Errors
    /// [`ClientError::Wire`] if the frame cannot encode, otherwise I/O.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), ClientError> {
        let bytes = frame.encode()?;
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Sends pre-encoded bytes verbatim (fuzzing corrupted frames).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    fn send(&mut self, kind: FrameKind, session: u64, payload: Vec<u8>) -> Result<(), ClientError> {
        let frame = Frame::new(kind, self.tenant, session, payload);
        self.send_frame(&frame)
    }

    /// Reads one reply frame off the socket (bypassing the inbox).
    ///
    /// # Errors
    /// I/O failure or a reply that does not decode.
    pub fn recv_frame(&mut self) -> Result<Frame, ClientError> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        // Mirror the server's edge check: refuse on the declared length
        // alone, before allocating or reading the body.
        let mut buf = vec![0u8; frame_head(&header, self.max_payload).2?];
        buf[..HEADER_LEN].copy_from_slice(&header);
        self.stream.read_exact(&mut buf[HEADER_LEN..])?;
        Ok(Frame::decode(&buf)?)
    }

    /// The next reply, inbox first.
    ///
    /// # Errors
    /// I/O failure or a reply that does not decode.
    pub fn recv_reply(&mut self) -> Result<Reply, ClientError> {
        if let Some(r) = self.inbox.pop_front() {
            return Ok(r);
        }
        let frame = self.recv_frame()?;
        Ok(Reply::parse(&frame)?)
    }

    /// Receives until `want` says yes, stashing everything else.
    fn recv_until<F: Fn(&Reply) -> bool>(&mut self, want: F) -> Result<Reply, ClientError> {
        let mut stash = Vec::new();
        let mut from_inbox = std::mem::take(&mut self.inbox);
        loop {
            let reply = match from_inbox.pop_front() {
                Some(r) => r,
                None => Reply::parse(&self.recv_frame()?)?,
            };
            if want(&reply) {
                stash.extend(from_inbox);
                self.inbox = stash.into();
                return Ok(reply);
            }
            stash.push(reply);
        }
    }

    /// Receives `session`'s answer to the request just sent: the first
    /// reply `ok` accepts, or the session's typed refusal or busy reply as
    /// the error.
    fn answer<F: Fn(&Reply) -> bool>(&mut self, session: u64, ok: F) -> Result<Reply, ClientError> {
        let reply = self.recv_until(|r| {
            ok(r)
                || matches!(r, Reply::Refused { session: s, .. }
                                | Reply::Busy { session: s, .. } if *s == session)
        })?;
        match reply {
            Reply::Refused { code, detail, .. } => Err(ClientError::Refused { code, detail }),
            Reply::Busy { code, .. } => Err(ClientError::Busy(code)),
            reply => Ok(reply),
        }
    }

    /// Opens `session`.
    ///
    /// # Errors
    /// [`ClientError::Refused`] with the server's typed code, or I/O.
    pub fn open(&mut self, session: u64) -> Result<(), ClientError> {
        self.send(FrameKind::Open, session, Vec::new())?;
        self.answer(session, |r| matches!(r, Reply::Opened { session: s } if *s == session))
            .map(drop)
    }

    /// Sends one point without waiting for its ack (windowed streaming).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn push(&mut self, session: u64, p: GpsPoint) -> Result<(), ClientError> {
        self.send(FrameKind::Push, session, push_payload(p))
    }

    /// Sends one point and blocks for its ack.
    ///
    /// # Errors
    /// [`ClientError::Busy`] under backpressure, [`ClientError::Refused`]
    /// on a typed refusal, or I/O.
    pub fn push_wait(&mut self, session: u64, p: GpsPoint) -> Result<Reply, ClientError> {
        self.push(session, p)?;
        self.wait_ack(session)
    }

    /// Streams `points` into `session` with at most `window` unacked
    /// pushes, then returns the ack count. Busy replies are returned as
    /// errors (the caller owns retry policy).
    ///
    /// # Errors
    /// Typed [`ClientError::Busy`]/[`ClientError::Refused`], or I/O.
    pub fn stream_points(
        &mut self,
        session: u64,
        points: &[GpsPoint],
        window: usize,
    ) -> Result<u64, ClientError> {
        let window = window.max(1);
        let mut acked = 0u64;
        let mut inflight = 0usize;
        for &p in points {
            while inflight >= window {
                self.wait_ack(session)?;
                inflight -= 1;
                acked += 1;
            }
            self.push(session, p)?;
            inflight += 1;
        }
        while inflight > 0 {
            self.wait_ack(session)?;
            inflight -= 1;
            acked += 1;
        }
        Ok(acked)
    }

    fn wait_ack(&mut self, session: u64) -> Result<Reply, ClientError> {
        self.answer(session, |r| matches!(r, Reply::Ack { session: s, .. } if *s == session))
    }

    /// Finalizes `session` and returns its point count and final result —
    /// bitwise identical to the offline decode of the same points.
    ///
    /// # Errors
    /// Typed [`ClientError::Refused`], or I/O.
    pub fn finalize(
        &mut self,
        session: u64,
    ) -> Result<(u64, trmma_traj::MatchResult), ClientError> {
        self.send(FrameKind::Finalize, session, Vec::new())?;
        let is_final = |r: &Reply| matches!(r, Reply::Final { session: s, .. } if *s == session);
        match self.answer(session, is_final)? {
            Reply::Final { points, result, .. } => Ok((points, result)),
            _ => Err(ClientError::Protocol("expected Final")),
        }
    }

    /// Drains the whole server for a rolling restart: every live session's
    /// snapshot, tagged with its owning tenant.
    ///
    /// # Errors
    /// Typed refusal or I/O.
    pub fn snapshot_all(&mut self) -> Result<Vec<(u64, SessionSnapshot)>, ClientError> {
        self.send(FrameKind::Snapshot, 0, Vec::new())?;
        let mut out = Vec::new();
        loop {
            let reply = self.recv_until(|r| {
                matches!(
                    r,
                    Reply::SnapshotData { .. } | Reply::SnapshotDone { .. } | Reply::Refused { .. }
                )
            })?;
            match reply {
                Reply::SnapshotData { tenant, snapshot, .. } => out.push((tenant, snapshot)),
                Reply::SnapshotDone { count } => {
                    if count as usize != out.len() {
                        return Err(ClientError::Protocol("snapshot count mismatch"));
                    }
                    return Ok(out);
                }
                Reply::Refused { code, detail, .. } => {
                    return Err(ClientError::Refused { code, detail })
                }
                _ => unreachable!("recv_until filtered"),
            }
        }
    }

    /// Rehydrates one drained session on this server, for `tenant`, under
    /// the session id recorded in the snapshot.
    ///
    /// # Errors
    /// Typed refusal ([`RefuseCode::RestoreFailed`], …) or I/O.
    pub fn restore(&mut self, tenant: u64, snap: &SessionSnapshot) -> Result<(), ClientError> {
        let session = snap.session;
        let frame = Frame::new(FrameKind::Restore, tenant, session, snap.encode()?);
        self.send_frame(&frame)?;
        self.answer(session, |r| matches!(r, Reply::Restored { session: s } if *s == session))
            .map(drop)
    }

    /// Fetches the server's [`ServeStats`].
    ///
    /// # Errors
    /// Typed refusal or I/O.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        self.send(FrameKind::Stats, 0, Vec::new())?;
        let reply = self.recv_until(|r| matches!(r, Reply::Stats(_) | Reply::Refused { .. }))?;
        match reply {
            Reply::Stats(s) => Ok(*s),
            Reply::Refused { code, detail, .. } => Err(ClientError::Refused { code, detail }),
            _ => unreachable!("recv_until filtered"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_baselines::{HmmConfig, HmmMatcher};
    use trmma_roadnet::RoutePlanner;
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
    use trmma_traj::types::Trajectory;

    fn world() -> (Arc<HmmMatcher>, Vec<Trajectory>) {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let hmm = Arc::new(HmmMatcher::new(net, planner, HmmConfig::default()));
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 21).into_iter().take(3).map(|s| s.sparse).collect();
        (hmm, batch)
    }

    #[test]
    fn frames_round_trip_bitwise() {
        let p = GpsPoint { pos: trmma_geom::Vec2::new(1.5, -2.0), t: 3.25 };
        let frame = Frame::new(FrameKind::Push, 7, 42, push_payload(p));
        let bytes = frame.encode().unwrap();
        assert_eq!(&bytes[..4], b"TRMP");
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.encode().unwrap(), bytes);
        // Unknown kinds and foreign versions decode (the server refuses
        // them with typed replies); corruption does not.
        let odd = Frame { version: 9, kind: 200, tenant: 0, session: 0, payload: vec![1, 2] };
        assert_eq!(Frame::decode(&odd.encode().unwrap()).unwrap(), odd);
        // A client does not read a reply laid out by another version.
        let old = Frame { version: 1, ..Frame::new(FrameKind::Opened, 7, 42, Vec::new()) };
        assert!(matches!(Reply::parse(&old), Err(SnapshotError::BadVersion(1))));
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err());
        }
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert_eq!(Frame::decode(&flipped), Err(SnapshotError::Checksum));
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert_eq!(Frame::decode(&wrong_magic), Err(SnapshotError::BadMagic));
    }

    /// The reply builders the server writes with, pinned to the bytes of
    /// `tests/golden_formats.rs`'s hand-laid ack and to a refusal.
    #[test]
    fn reply_frame_bytes_are_pinned() {
        let hex = |f: Frame| -> String {
            f.encode().unwrap().iter().map(|b| format!("{b:02x}")).collect()
        };
        let m = trmma_traj::types::MatchedPoint {
            seg: trmma_roadnet::SegmentId(11),
            ratio: 0.375,
            t: 60.5,
        };
        let update = trmma_traj::OnlineUpdate { provisional: Some(m), stable_prefix: 3 };
        assert_eq!(
            hex(ack_frame(7, 42, 5, &update)),
            "54524d5002001107000000000000002a00000000000000250000000500000000000000030000000000\
             0000010b000000000000000000d83f0000000000404e40d8dd33c8"
        );
        assert_eq!(
            hex(refused_frame(7, 42, RefuseCode::BadVersion, 9)),
            "54524d5002001807000000000000002a00000000000000050000000109000000887408c5"
        );
    }

    #[test]
    fn kind_and_code_tables_are_involutions() {
        for k in 0..=u8::MAX {
            if let Some(kind) = FrameKind::from_u8(k) {
                assert_eq!(kind as u8, k);
                assert_eq!(kind.is_request(), k < 16);
            }
            if let Some(code) = RefuseCode::from_u8(k) {
                assert_eq!(code as u8, k);
            }
            if let Some(code) = BusyCode::from_u8(k) {
                assert_eq!(code as u8, k);
            }
        }
        assert!(FrameKind::from_u8(0).is_none());
        assert!(FrameKind::from_u8(99).is_none());
        // The retired rate limit's code stays unassigned.
        assert!(BusyCode::from_u8(1).is_none());
    }

    #[test]
    fn stats_wire_codec_round_trips() {
        let mut s = ServeStats { connections: 3, frames_in: 100, busy: 2, ..Default::default() };
        s.tenants.push(TenantLoad { tenant: 9, points: 55, queue_full: 4, ..Default::default() });
        let bytes = s.wire_encode();
        assert_eq!(ServeStats::wire_decode(&bytes).unwrap(), s);
        assert!(ServeStats::wire_decode(&bytes[..bytes.len() - 1]).is_err());
        assert_eq!(s.tenant(9).unwrap().points, 55);
        assert!(s.tenant(1).is_none());
    }

    #[test]
    fn loopback_identity_and_typed_refusals() {
        let (hmm, trips) = world();
        let server = Server::start(hmm.clone(), ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut client = ServeClient::connect(addr, 1).unwrap();
        let trip = &trips[0];
        client.open(10).unwrap();
        // Double-open is a typed refusal, not a stall.
        let mut other = ServeClient::connect(addr, 1).unwrap();
        assert_eq!(
            other.open(10),
            Err(ClientError::Refused { code: RefuseCode::AlreadyOpen, detail: 0 })
        );
        let acks = client.stream_points(10, &trip.points, 8).unwrap();
        assert_eq!(acks, trip.points.len() as u64);
        // A non-advancing timestamp is refused at the edge.
        let late = trip.points[trip.points.len() - 1];
        assert_eq!(
            client.push_wait(10, late),
            Err(ClientError::Refused { code: RefuseCode::LatePoint, detail: 0 })
        );
        let (points, result) = client.finalize(10).unwrap();
        assert_eq!(points, trip.points.len() as u64);
        let mut scratch = hmm.make_scratch();
        assert_eq!(result, hmm.match_trajectory_with(&mut scratch, trip));
        // Zero-point sessions finalize to the empty decode.
        client.open(11).unwrap();
        let (points, result) = client.finalize(11).unwrap();
        assert_eq!(points, 0);
        assert!(result.matched.is_empty() && result.route.is_empty());
        let stats = client.stats().unwrap();
        assert_eq!(stats.points_accepted, trip.points.len() as u64);
        assert_eq!(stats.acks_out, trip.points.len() as u64);
        assert_eq!(stats.sessions_opened, 2);
        assert_eq!(stats.sessions_finalized, 2);
        assert_eq!(stats.late_refused, 1);
        assert!(stats.refused >= 2);
        assert_eq!(stats.tenant(1).unwrap().points, trip.points.len() as u64);
        server.stop();
    }

    #[test]
    fn snapshot_restore_between_servers_keeps_sessions() {
        let (hmm, trips) = world();
        let a = Server::start(hmm.clone(), ServeConfig::default()).unwrap();
        let mut ca = ServeClient::connect(a.local_addr(), 5).unwrap();
        let trip = &trips[1];
        let mid = trip.points.len() / 2;
        ca.open(77).unwrap();
        ca.stream_points(77, &trip.points[..mid], 4).unwrap();
        let snaps = ca.snapshot_all().unwrap();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, 5);
        assert_eq!(snaps[0].1.session, 77);
        // Server A is drained: new pushes are refused as Draining? No —
        // the drain completed, so the session is simply gone.
        assert_eq!(
            ca.push_wait(77, trip.points[mid]),
            Err(ClientError::Refused { code: RefuseCode::UnknownSession, detail: 0 })
        );
        a.stop();
        let b = Server::start(hmm.clone(), ServeConfig::default()).unwrap();
        let mut cb = ServeClient::connect(b.local_addr(), 5).unwrap();
        for (tenant, snap) in &snaps {
            cb.restore(*tenant, snap).unwrap();
        }
        cb.stream_points(77, &trip.points[mid..], 4).unwrap();
        let (points, result) = cb.finalize(77).unwrap();
        assert_eq!(points, trip.points.len() as u64);
        let mut scratch = hmm.make_scratch();
        assert_eq!(result, hmm.match_trajectory_with(&mut scratch, trip));
        assert_eq!(b.stats().sessions_restored, 1);
        b.stop();
    }
}
