//! The load generator of the two socket workloads: one connection, a
//! sender thread and a receiver thread, built from the public wire codec
//! (`Frame::encode`/`decode`, `push_payload`, `Reply::parse`).
//!
//! `socket_paced` is an **open loop**: point `i` is due at `i / rate`
//! seconds whatever the server does, and its latency runs from that due
//! time to the moment its ack is read, so a stall is charged to every point
//! it delays. `socket_saturated` is a **closed loop**: at most `window`
//! points are unacked, and latency runs from the send.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use trmma_bench::stream_bench::interleave_ids;
use trmma_core::serve::{push_payload, HEADER_LEN};
use trmma_core::{par_match_pooled, BatchOptions, Frame, FrameKind, Reply};
use trmma_traj::metrics::matching_metrics;
use trmma_traj::{GpsPoint, MatchResult, Trajectory};

use crate::fixture::{Eval, Fixture};
use crate::host;
use crate::measure::{Measured, Pass};
use crate::setup::TENANT;
use crate::stats;
use crate::trace::{Span, Tracer};

/// Sends per timing window: enough for a p99 with twenty samples beyond it.
const WINDOW_OPS: usize = 2000;
/// Inflight window of the closed loop.
pub const SATURATED_WINDOW: usize = 1024;
/// A send this much after its due time counts as late.
const LATE_S: f64 = 1e-3;
/// Largest share of late sends, and smallest share of the offered rate
/// achieved, an open-loop run may show and still count. Loose on purpose:
/// on a throttled two-vCPU VM 1–6 % of wake-ups come over a millisecond
/// late through no fault of the generator; that lateness is charged to the
/// points it delays (latency runs from the due time) and reported as
/// `loadgen.late_ratio`. These two only catch a generator that cannot
/// offer the load at all.
const MAX_LATE_RATIO: f64 = 0.25;
const MIN_ACHIEVED: f64 = 0.90;
/// How long the receiver waits for a reply before calling it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How the sender decides when to send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Fixed schedule, `rate` points per second.
    Open { rate: f64 },
    /// At most `window` unacked points.
    Closed { window: usize },
}

/// One round's worth of traffic: the evaluation corpus interleaved into one
/// point stream, each trajectory its own session.
pub struct Plan {
    /// `(session index, point)` in send order.
    pub events: Vec<(u32, GpsPoint)>,
    /// `event_of[s][k]`: index in `events` of session `s`'s `k`-th point.
    event_of: Vec<Vec<u32>>,
}

impl Plan {
    /// Interleaves `sessions` with the schedule seed; equal seeds give
    /// equal streams.
    pub fn new(sessions: &[Trajectory], seed: u64) -> Self {
        let ids: Vec<u64> = (0..sessions.len() as u64).collect();
        let mut event_of: Vec<Vec<u32>> =
            sessions.iter().map(|t| Vec::with_capacity(t.len())).collect();
        let events: Vec<(u32, GpsPoint)> = interleave_ids(sessions, &ids, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (sid, p))| {
                let s = u32::try_from(sid).expect("session index fits u32");
                event_of[s as usize].push(u32::try_from(i).expect("event index fits u32"));
                (s, p)
            })
            .collect();
        Self { events, event_of }
    }

    pub fn sessions(&self) -> usize {
        self.event_of.len()
    }

    /// Seconds after the round's start at which event `i` is due under an
    /// open loop of `rate` points per second.
    pub fn due_s(i: usize, rate: f64) -> f64 {
        i as f64 / rate
    }
}

/// Which server sessions a round streams into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sessions {
    /// Plan session `s` is server session `base_sid + s`.
    pub base_sid: u64,
    /// Rounds these sessions have already taken. A later round continues
    /// each session: the same trajectory again, its timestamps moved
    /// `earlier * ROUND_SHIFT_S` later — a device that keeps driving.
    pub earlier: u64,
    /// Finalize every session after the stream and collect the `Final`s.
    pub finalize: bool,
}

impl Sessions {
    /// Fresh sessions, opened by this round and finalized after it.
    pub fn fresh(base_sid: u64) -> Self {
        Self { base_sid, earlier: 0, finalize: true }
    }
}

/// Seconds between the rounds of a continued session: longer than any trip.
const ROUND_SHIFT_S: f64 = 1e6;

/// Reads one frame: the fixed header, then the payload and CRC its length
/// field announces. Short reads are resumed, so a frame may arrive split
/// anywhere.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> std::io::Result<Frame> {
    buf.clear();
    buf.resize(HEADER_LEN, 0);
    r.read_exact(buf)?;
    let len = u32::from_le_bytes(buf[HEADER_LEN - 4..].try_into().expect("4 bytes")) as usize;
    if len > 1 << 20 {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "oversized reply"));
    }
    buf.resize(HEADER_LEN + len + 4, 0);
    r.read_exact(&mut buf[HEADER_LEN..])?;
    Frame::decode(buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
}

fn request(kind: FrameKind, session: u64, payload: Vec<u8>) -> Vec<u8> {
    Frame::new(kind, TENANT, session, payload).encode().expect("request frame encodes")
}

/// What one round (open all → stream all → finalize all) observed.
pub struct Round {
    /// The streamed points cut into windows of ~[`WINDOW_OPS`] consecutive
    /// sends: each window is one timed pass of the workload, so a stall
    /// (this is a shared, throttled VM) spoils the windows it falls in and
    /// the median over windows stays clean.
    pub windows: Vec<Pass>,
    /// Start of the stream → last reply read, seconds.
    pub wall_s: f64,
    /// `Final` result of each session, `None` when it never came.
    pub finals: Vec<Option<MatchResult>>,
    /// Points sent (= points attempted).
    pub sent: usize,
    pub busy: u64,
    pub refused: u64,
    /// Sent points whose ack never arrived.
    pub missing: u64,
    /// Worst lateness of a send against its due time (open loop), seconds.
    pub max_lag_s: f64,
    /// Share of sends more than 1 ms late (open loop).
    pub late_ratio: f64,
    /// Spans of the sender and receiver threads (empty when untraced).
    pub spans: Vec<Span>,
}

impl Round {
    /// Sent points that came back as anything but an ack, or not at all.
    pub fn lost(&self) -> u64 {
        self.busy + self.refused + self.missing
    }
}

struct Sent {
    /// Send (closed loop) or due (open loop) time of each event, ns.
    t0_ns: Vec<u64>,
    lags_s: Vec<f64>,
    tracer: Tracer,
}

struct Received {
    /// Ack-read time of each event, 0 when none came.
    ack_ns: Vec<u64>,
    last_ns: u64,
    busy: u64,
    refused: u64,
}

fn send_loop(
    mut conn: &TcpStream,
    plan: &Plan,
    to: Sessions,
    pacing: Pacing,
    origin: Instant,
    credits: mpsc::Receiver<()>,
    mut tracer: Tracer,
) -> Sent {
    let n = plan.events.len();
    let mut t0_ns = vec![0u64; n];
    let mut lags_s = Vec::with_capacity(n);
    let mut inflight = 0usize;
    let root = tracer.open("loadgen.sender");
    for (i, &(s, p)) in plan.events.iter().enumerate() {
        let wait = tracer.open("loadgen.pace.wait");
        match pacing {
            Pacing::Open { rate } => {
                let due = Duration::from_secs_f64(Plan::due_s(i, rate));
                let now = origin.elapsed();
                // Sleeping (not spinning) leaves the core to the server;
                // whatever the wake-up overshoots is charged to the point.
                if due > now + Duration::from_micros(50) {
                    std::thread::sleep(due - now);
                }
                t0_ns[i] = u64::try_from(due.as_nanos()).expect("fits u64");
                lags_s.push(origin.elapsed().saturating_sub(due).as_secs_f64());
            }
            Pacing::Closed { window } => {
                while credits.try_recv().is_ok() {
                    inflight -= 1;
                }
                while inflight >= window {
                    if credits.recv_timeout(REPLY_TIMEOUT).is_err() {
                        // The receiver gave up; stop offering load.
                        tracer.close(wait);
                        tracer.close(root);
                        t0_ns.truncate(i);
                        return Sent { t0_ns, lags_s, tracer };
                    }
                    inflight -= 1;
                }
                inflight += 1;
            }
        }
        tracer.close(wait);
        let enc = tracer.open("core.serve.frame_encode");
        let p = GpsPoint { t: p.t + to.earlier as f64 * ROUND_SHIFT_S, ..p };
        let bytes = request(FrameKind::Push, to.base_sid + u64::from(s), push_payload(p));
        tracer.close(enc);
        if matches!(pacing, Pacing::Closed { .. }) {
            t0_ns[i] = u64::try_from(origin.elapsed().as_nanos()).expect("fits u64");
        }
        let wr = tracer.open("net.socket.write");
        let ok = conn.write_all(&bytes).is_ok();
        tracer.close(wr);
        if !ok {
            t0_ns.truncate(i);
            break;
        }
    }
    tracer.close(root);
    Sent { t0_ns, lags_s, tracer }
}

fn recv_loop(
    conn: &TcpStream,
    plan: &Plan,
    to: Sessions,
    origin: Instant,
    credits: mpsc::Sender<()>,
    mut tracer: Tracer,
) -> (Received, Tracer) {
    let n = plan.events.len();
    let mut reader = BufReader::with_capacity(1 << 16, conn);
    let mut buf = Vec::new();
    let mut out = Received { ack_ns: vec![0u64; n], last_ns: 0, busy: 0, refused: 0 };
    let root = tracer.open("loadgen.receiver");
    for _ in 0..n {
        let rd = tracer.open("net.socket.read");
        let frame = read_frame(&mut reader, &mut buf);
        tracer.close(rd);
        let Ok(frame) = frame else { break };
        let dec = tracer.open("core.serve.frame_decode");
        let reply = Reply::parse(&frame);
        tracer.close(dec);
        let now = u64::try_from(origin.elapsed().as_nanos()).expect("fits u64");
        match reply {
            Ok(Reply::Ack { session, seq, .. }) => {
                // A continued session's seq runs on from its earlier rounds.
                let ev = usize::try_from(session.wrapping_sub(to.base_sid))
                    .ok()
                    .and_then(|s| plan.event_of.get(s))
                    .and_then(|evs| {
                        let earlier = to.earlier.checked_mul(evs.len() as u64)?;
                        evs.get(usize::try_from(seq.checked_sub(earlier)?).ok()?)
                    });
                if let Some(&ev) = ev {
                    out.ack_ns[ev as usize] = now;
                }
            }
            Ok(Reply::Busy { .. }) => out.busy += 1,
            _ => out.refused += 1,
        }
        out.last_ns = now;
        let _ = credits.send(());
    }
    tracer.close(root);
    (out, tracer)
}

/// Sends `frames` in one write and reads one reply per frame.
fn exchange(mut conn: &TcpStream, frames: &[u8], replies: usize) -> std::io::Result<Vec<Frame>> {
    conn.write_all(frames)?;
    let mut reader = BufReader::with_capacity(1 << 16, conn);
    let mut buf = Vec::new();
    (0..replies).map(|_| read_frame(&mut reader, &mut buf)).collect()
}

/// Runs one round of `plan` over `conn` into the sessions `to` names: open
/// them if they are fresh (untimed), stream every point (timed) and, when
/// asked, finalize them (untimed, collecting the `Final`s).
///
/// # Panics
/// Panics when the session-open handshakes fail outright — the server is
/// this process's own.
pub fn run_round(
    conn: &TcpStream,
    plan: &Plan,
    to: Sessions,
    pacing: Pacing,
    traced: bool,
) -> Round {
    conn.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set read timeout");
    let n_sessions = plan.sessions();
    let frames = |kind: FrameKind, n: usize| -> Vec<u8> {
        (0..n as u64).flat_map(|s| request(kind, to.base_sid + s, Vec::new())).collect()
    };

    let opens = if to.earlier == 0 { n_sessions } else { 0 };
    let opened = exchange(conn, &frames(FrameKind::Open, opens), opens).expect("open handshakes");
    assert!(
        opened.iter().all(|f| f.kind == FrameKind::Opened as u8),
        "the server refused to open a session"
    );

    let origin = Instant::now();
    let tracer = || if traced { Tracer::new(origin) } else { Tracer::off() };
    let (send_tracer, recv_tracer) = (tracer(), tracer());
    let (credit_tx, credit_rx) = mpsc::channel();
    let (sent, (received, recv_tracer)) = std::thread::scope(|scope| {
        let rx = scope.spawn(move || recv_loop(conn, plan, to, origin, credit_tx, recv_tracer));
        let tx =
            scope.spawn(move || send_loop(conn, plan, to, pacing, origin, credit_rx, send_tracer));
        (tx.join().expect("sender thread"), rx.join().expect("receiver thread"))
    });

    let sent_n = sent.t0_ns.len();
    let acked = received.ack_ns[..sent_n].iter().filter(|&&a| a != 0).count() as u64;
    // Every sent point got an ack, another reply, or nothing.
    let missing = (sent_n as u64 - acked).saturating_sub(received.busy + received.refused);
    let late = sent.lags_s.iter().filter(|&&l| l > LATE_S).count();

    let n_windows = (sent_n / WINDOW_OPS).max(1);
    let mut windows = Vec::with_capacity(n_windows);
    let mut prev_end = 0u64;
    for w in 0..n_windows {
        let range = w * sent_n / n_windows..(w + 1) * sent_n / n_windows;
        let op_s: Vec<f64> = range
            .clone()
            .filter(|&i| received.ack_ns[i] != 0)
            .map(|i| received.ack_ns[i].saturating_sub(sent.t0_ns[i]) as f64 / 1e9)
            .collect();
        // A window runs from the previous window's last ack to its own.
        let end = received.ack_ns[range].iter().copied().max().unwrap_or(0).max(prev_end);
        if op_s.len() >= 2 * stats::MIN_BEYOND && end > prev_end {
            windows.push(Pass { points: op_s.len(), wall_s: (end - prev_end) as f64 / 1e9, op_s });
        }
        prev_end = end;
    }

    let mut finals: Vec<Option<MatchResult>> = vec![None; if to.finalize { n_sessions } else { 0 }];
    let replies = exchange(conn, &frames(FrameKind::Finalize, finals.len()), finals.len());
    for frame in replies.unwrap_or_default() {
        if let Ok(Reply::Final { session, result, .. }) = Reply::parse(&frame) {
            let slot = usize::try_from(session.wrapping_sub(to.base_sid)).ok();
            if let Some(slot) = slot.and_then(|s| finals.get_mut(s)) {
                *slot = Some(result);
            }
        }
    }

    let mut spans = sent.tracer.finish(0);
    let id_base = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
    spans.extend(recv_tracer.finish(id_base));
    Round {
        windows,
        wall_s: received.last_ns as f64 / 1e9,
        finals,
        sent: sent_n,
        busy: received.busy,
        refused: received.refused,
        missing,
        max_lag_s: sent.lags_s.iter().copied().fold(0.0, f64::max),
        late_ratio: if sent.lags_s.is_empty() {
            0.0
        } else {
            late as f64 / sent.lags_s.len() as f64
        },
        spans,
    }
}

/// Runs one socket workload: rounds of the same plan until `seconds` have
/// gone by; then the verification. Every window of every round is one
/// timed pass. A `Busy`, a `Refused`, a
/// missing ack and a `Final` that differs from `reference`'s offline decode
/// of the same points are each a failed operation.
///
/// The open loop streams every round into fresh sessions, finalizes them
/// and checks every `Final`. The closed loop does so for its first round
/// only: a `Nearest` finalize is ~2 ms of route planning against ~5 µs per
/// streamed point, so finalizing every round would leave 4 % of the run
/// for the measurement. Its later rounds all continue one second set of
/// sessions — devices that keep driving — which are verified by their acks
/// and never finalized.
///
/// An open-loop run whose generator cannot keep its schedule (more than
/// [`MAX_LATE_RATIO`] of sends over 1 ms behind, or less than
/// [`MIN_ACHIEVED`] of the offered rate achieved) measured the generator,
/// not the server: every operation of it fails.
pub fn run<R: trmma_traj::ScratchMatcher + Sync>(
    fx: &Fixture,
    eval: &Eval,
    conn: &TcpStream,
    reference: &R,
    pacing: Pacing,
    seconds: f64,
) -> Measured {
    let plan = Plan::new(&eval.batch, eval.seed);
    let sessions = plan.sessions() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round = rounds.len() as u64;
        let to = match pacing {
            Pacing::Closed { .. } if round > 0 => {
                Sessions { base_sid: sessions, earlier: round - 1, finalize: false }
            }
            _ => Sessions::fresh(round * sessions),
        };
        rounds.push(run_round(conn, &plan, to, pacing, false));
        let capped = fx.profile.max_passes != 0 && rounds.len() >= fx.profile.max_passes;
        if capped || Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();

    let threads = BatchOptions::with_threads(host::batch_threads());
    let (offline, _) = par_match_pooled(reference, &eval.batch, threads);
    let attempted: u64 = rounds.iter().map(|o| o.sent as u64).sum();
    let mut failed = 0u64;
    for o in &rounds {
        failed += o.lost();
        failed +=
            o.finals.iter().zip(&offline).filter(|(f, r)| f.as_ref() != Some(*r)).count() as u64;
    }
    let mut invalid = false;
    if let Pacing::Open { rate } = pacing {
        let late: f64 = rounds.iter().map(|o| o.late_ratio * o.sent as f64).sum();
        let late_ratio = late / attempted as f64;
        let acked: usize = rounds.iter().flat_map(|o| &o.windows).map(|w| w.points).sum();
        let achieved = acked as f64 / rounds.iter().map(|o| o.wall_s).sum::<f64>();
        invalid = late_ratio > MAX_LATE_RATIO || achieved < MIN_ACHIEVED * rate;
        eprintln!("open loop: late_ratio {late_ratio:.4}, achieved {achieved:.0}/s of {rate:.0}/s");
        if invalid {
            eprintln!("the generator did not keep its schedule: the run does not count");
        }
    }
    let f1: f64 = rounds[0]
        .finals
        .iter()
        .zip(&eval.samples)
        .map(|(f, s)| f.as_ref().map_or(0.0, |r| matching_metrics(&r.route, &s.route).f1))
        .sum();
    Measured {
        passes: rounds.into_iter().flat_map(|o| o.windows).collect(),
        attempted,
        failed: if invalid { attempted } else { failed.min(attempted) },
        seg_f1: f1 / eval.samples.len() as f64,
        peak_rss_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_geom::Vec2;

    fn trip(len: usize, x0: f64) -> Trajectory {
        Trajectory {
            points: (0..len)
                .map(|i| GpsPoint { pos: Vec2::new(x0 + i as f64, 0.0), t: i as f64 })
                .collect(),
        }
    }

    #[test]
    fn schedule_and_interleaving_follow_the_seed() {
        let sessions: Vec<Trajectory> =
            (0..12).map(|i| trip(3 + i % 4, i as f64 * 100.0)).collect();
        let (a, b, c) = (Plan::new(&sessions, 5), Plan::new(&sessions, 5), Plan::new(&sessions, 6));
        assert_eq!(a.events, b.events, "equal seeds, equal streams");
        assert_ne!(a.events, c.events, "another seed, another interleaving");
        assert_eq!(a.events.len(), sessions.iter().map(Trajectory::len).sum::<usize>());
        // Each session's points stay in order and the index map inverts the stream.
        for (s, evs) in a.event_of.iter().enumerate() {
            assert_eq!(evs.len(), sessions[s].len());
            for (k, &e) in evs.iter().enumerate() {
                assert_eq!(a.events[e as usize], (s as u32, sessions[s].points[k]));
            }
            assert!(evs.windows(2).all(|w| w[0] < w[1]));
        }
        // The open-loop schedule is a pure function of index and rate.
        assert_eq!(Plan::due_s(0, 8000.0), 0.0);
        assert_eq!(Plan::due_s(8000, 8000.0), 1.0);
        assert_eq!(Plan::due_s(3, 8000.0), Plan::due_s(3, 8000.0));
    }

    /// Hands out `data` in two reads split at `cut`.
    struct SplitAt<'a> {
        data: &'a [u8],
        cut: usize,
        pos: usize,
    }

    impl Read for SplitAt<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let end = if self.pos < self.cut { self.cut } else { self.data.len() };
            let n = (end - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_a_split_at_every_byte() {
        let p = GpsPoint { pos: Vec2::new(12.5, -7.25), t: 99.0 };
        let frames = [
            Frame::new(FrameKind::Push, TENANT, 42, push_payload(p)),
            Frame::new(FrameKind::Open, TENANT, 43, Vec::new()),
        ];
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode().unwrap()).collect();
        for cut in 0..=wire.len() {
            let mut r = SplitAt { data: &wire, cut, pos: 0 };
            let mut buf = Vec::new();
            for f in &frames {
                assert_eq!(&read_frame(&mut r, &mut buf).unwrap(), f, "split at byte {cut}");
            }
            assert!(read_frame(&mut r, &mut buf).is_err(), "nothing follows the last frame");
        }
    }
}
