//! Map matching as a resumable decoder: the one trait every matcher in the
//! repository implements, for streaming and offline decoding alike.
//!
//! The batch engine serves complete, pre-collected trajectories; production
//! traffic is the opposite shape — GPS points arrive one at a time from many
//! concurrent devices, and each device wants a match *now*, refined as more
//! evidence arrives. The map-matching literature treats this online /
//! incremental mode as first-class, distinct from offline global decoding
//! (Chao et al., 2019): the decoder must keep its search state warm between
//! updates instead of re-decoding from scratch.
//!
//! [`OnlineMatcher`] is that contract. A *session* holds one trajectory's
//! decoder state (the Viterbi beam and backpointers for the HMM family, the
//! accumulated point/candidate history for MMA); the per-worker *scratch*
//! ([`OnlineMatcher::Scratch`]) holds the reusable search buffers shared by
//! every session a worker serves (dense Dijkstra sweeps, kNN heaps, forward
//! workspaces). [`OnlineMatcher::advance`] consumes one point and
//! [`OnlineMatcher::update`] reports an [`OnlineUpdate`]: the *provisional*
//! match of the newest point (what the decoder would answer if the stream
//! ended now) plus the *stabilized prefix watermark* — the number of leading
//! points whose final match can no longer change, no matter what arrives
//! later. [`OnlineMatcher::push_point`] is the two in a row.
//!
//! **Offline by construction.** [`OnlineMatcher::match_trajectory_with`] is
//! a provided method — `begin_session` → `advance`* → `finalize` — and no
//! matcher has a decode loop of its own, so the offline decode *is* the
//! online decode replayed. [`MapMatcher`], the object-safe view `dyn`
//! callers hold, is one blanket impl over this trait.
//!
//! **Sessions are detachable.** A session owns its entire decode history
//! and borrows nothing from the scratch that last advanced it, so it can be
//! frozen to bytes on one worker and resumed on another (crash recovery,
//! rolling restarts) without changing a single output bit.
//!
//! [`MapMatcher`]: crate::api::MapMatcher

use crate::api::{assert_finite_point, MatchResult};
use crate::snapshot::SnapshotError;
use crate::types::{GpsPoint, MatchedPoint, Trajectory};

/// What [`OnlineMatcher::update`] (and so each
/// [`OnlineMatcher::push_point`]) tells the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineUpdate {
    /// Best-known match of the point just pushed — the match the decoder
    /// would commit to if the stream ended here. `None` only when the
    /// decoder found no candidate at all (empty road network).
    pub provisional: Option<MatchedPoint>,
    /// Stabilized-prefix watermark: the first `stable_prefix` points of the
    /// session have reached their final match — [`OnlineMatcher::finalize`]
    /// is guaranteed to return exactly those matches for them regardless of
    /// any points still to come. Monotonically non-decreasing over a
    /// session's lifetime.
    pub stable_prefix: usize,
}

/// A map matcher: the decoder as a resumable state machine.
///
/// Implementations split their mutable state in two:
///
/// * **Session** — per-trajectory decoder state, created by
///   [`OnlineMatcher::begin_session`] and advanced one GPS point at a time.
///   A session is *detachable*: it owns everything the decode depends on
///   (the Viterbi lattice, MMA's accumulated candidate sets) and borrows
///   nothing from the scratch it last ran on, so it is `Send`, a streaming
///   engine can hold thousands, and any scratch continues the decode
///   bitwise identically — a session rebuilt on another worker after a
///   crash included.
/// * **Scratch** — per-*worker* search buffers: one scratch serves every
///   session on that worker, exactly as it serves every trajectory in the
///   batch engine (`trmma_core::batch::par_match_pooled`). Scratch contents
///   are pure caches (dense Dijkstra sweeps, kNN heaps, forward workspaces,
///   recycled rows) and never influence decoder output.
///
/// `Send + Sync` is part of the contract: matchers are immutable at
/// inference time and are shared by reference across worker threads.
///
/// The contract, property-tested in `tests/props_streaming.rs`:
///
/// 1. *Watermark soundness*: once an update reports `stable_prefix = w`,
///    the first `w` matched points of any future `finalize` equal what
///    `finalize` would return right now.
/// 2. *Scratch independence*: pushing the same points through the same
///    session with different (or fresh) scratches yields identical
///    updates and an identical finalize — the property crash recovery and
///    snapshot restore rest on.
///
/// Replay equivalence — push-all then finalize equals the offline decode —
/// holds by construction: [`OnlineMatcher::match_trajectory_with`] is that
/// replay.
pub trait OnlineMatcher: Send + Sync {
    /// Short display name, used in experiment tables and recorded in every
    /// session snapshot: a restore refuses a payload written under another
    /// name, so renaming a matcher breaks rolling restarts.
    const NAME: &'static str;

    /// Per-worker mutable state.
    type Scratch: Send;

    /// Per-session decoder state.
    type Session: Send;

    /// Creates one worker's scratch.
    fn make_scratch(&self) -> Self::Scratch;

    /// Heap allocations `scratch` has absorbed so far: buffers served from
    /// recycled storage on the per-point path instead of the allocator —
    /// what the engines fold into their timing and router reports. Zero for
    /// matchers whose scratch tracks nothing.
    fn allocs_avoided(_scratch: &Self::Scratch) -> u64 {
        0
    }

    /// Opens a fresh session (no points yet).
    fn begin_session(&self) -> Self::Session;

    /// Consumes the next GPS point of the session's trajectory. Callers go
    /// through [`OnlineMatcher::push_point`] or
    /// [`OnlineMatcher::match_trajectory_with`], which validate the point
    /// first.
    fn advance(&self, scratch: &mut Self::Scratch, session: &mut Self::Session, point: GpsPoint);

    /// The provisional match of the newest point and the stabilized-prefix
    /// watermark, as of the last [`OnlineMatcher::advance`].
    fn update(&self, scratch: &mut Self::Scratch, session: &mut Self::Session) -> OnlineUpdate;

    /// Closes the session: runs the final (global) decode over everything
    /// pushed and stitches the route.
    fn finalize(&self, scratch: &mut Self::Scratch, session: Self::Session) -> MatchResult;

    /// Number of points pushed into `session` so far.
    fn session_len(&self, session: &Self::Session) -> usize;

    /// The session's current stabilized-prefix watermark — the value the
    /// last [`OnlineUpdate::stable_prefix`] reported (`0` before any push).
    fn session_watermark(&self, session: &Self::Session) -> usize;

    /// Serializes the session's complete decoder state into `out`, using
    /// the wire primitives of [`crate::snapshot`]. Because sessions are
    /// detachable (they borrow nothing from any scratch), the byte string
    /// is the *whole* decode: restoring it on any worker of any process
    /// running the same matcher configuration continues the stream
    /// bitwise-identically — the contract crash recovery and rolling
    /// restarts rest on, property-tested in `tests/props_snapshot.rs`.
    ///
    /// Implementations append raw payload bytes only; the engine wraps them
    /// in a versioned, checksummed envelope (`trmma_core::snapshot`) that
    /// also records [`OnlineMatcher::NAME`].
    fn snapshot_session(&self, session: &Self::Session, out: &mut Vec<u8>);

    /// Reconstructs a session from bytes written by
    /// [`OnlineMatcher::snapshot_session`]. The restored session must be
    /// indistinguishable from the original: same `session_len`, same
    /// `session_watermark`, and every future `push_point`/`finalize`
    /// bit-for-bit equal to what the original would have produced.
    ///
    /// Fails with [`SnapshotError`] (never panics) on truncated or
    /// structurally invalid input.
    fn restore_session(&self, bytes: &[u8]) -> Result<Self::Session, SnapshotError>;

    /// Feeds the next GPS point of the session's trajectory:
    /// [`OnlineMatcher::advance`], then [`OnlineMatcher::update`].
    ///
    /// # Panics
    /// Panics naming the point's index in the session and its value unless
    /// x, y and t are all finite ([`crate::is_finite_point`]).
    fn push_point(
        &self,
        scratch: &mut Self::Scratch,
        session: &mut Self::Session,
        point: GpsPoint,
    ) -> OnlineUpdate {
        assert_finite_point(self.session_len(session), &point);
        self.advance(scratch, session, point);
        self.update(scratch, session)
    }

    /// Opens a session and advances it through every point of `traj`.
    ///
    /// # Panics
    /// Panics naming the first point that is not finite, as
    /// [`OnlineMatcher::push_point`] does.
    fn replay(&self, scratch: &mut Self::Scratch, traj: &Trajectory) -> Self::Session {
        let mut session = self.begin_session();
        for (i, &p) in traj.points.iter().enumerate() {
            assert_finite_point(i, &p);
            self.advance(scratch, &mut session, p);
        }
        session
    }

    /// The offline decode of `traj` through caller-owned scratch:
    /// [`OnlineMatcher::replay`], then [`OnlineMatcher::finalize`]. Output
    /// is independent of what the scratch served before.
    ///
    /// # Panics
    /// Panics naming the first point that is not finite, as
    /// [`OnlineMatcher::push_point`] does.
    fn match_trajectory_with(&self, scratch: &mut Self::Scratch, traj: &Trajectory) -> MatchResult {
        let session = self.replay(scratch, traj);
        self.finalize(scratch, session)
    }
}
