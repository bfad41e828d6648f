//! Streaming (online) map matching: incremental decoders behind a
//! session-per-device interface.
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
//! ([`ScratchMatcher::Scratch`]) holds the reusable search buffers shared by
//! every session a worker serves (warm Dijkstra pools, kNN heaps, forward
//! workspaces). Each [`OnlineMatcher::push_point`] returns an [`OnlineUpdate`]:
//! the *provisional* match of the newest point (what the decoder would
//! answer if the stream ended now) plus the *stabilized prefix watermark* —
//! the number of leading points whose final match can no longer change, no
//! matter what arrives later.
//!
//! **Offline as replay.** Feeding a whole trajectory through
//! `begin_session` → `push_point`* → `finalize` must produce output
//! identical to [`MapMatcher::match_trajectory`] — the offline decode *is*
//! the online decode replayed; `tests/props_streaming.rs` property-tests
//! this for every implementation in the repository.
//!
//! **Sessions are detachable.** A session owns its entire decode history
//! and borrows nothing from the scratch that last advanced it, so a
//! streaming engine may *migrate* a live session to a different worker
//! (different scratch) between any two pushes without changing a single
//! output bit — see [`OnlineMatcher::session_stable`] for the eligibility
//! test the load-aware router uses.
//!
//! [`MapMatcher::match_trajectory`]: crate::api::MapMatcher::match_trajectory

use crate::api::{MatchResult, ScratchMatcher};
use crate::snapshot::SnapshotError;
use crate::types::{GpsPoint, MatchedPoint};

/// What one [`OnlineMatcher::push_point`] call tells the caller.
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

/// An incremental map matcher: the decoder as a resumable state machine.
///
/// Implementations split their mutable state in two:
///
/// * **Session** — per-trajectory decoder state, created by
///   [`OnlineMatcher::begin_session`] and advanced one GPS point at a time.
///   A session is *detachable*: it owns everything the decode depends on
///   (the Viterbi lattice, MMA's accumulated candidate sets) and borrows
///   nothing from the scratch it last ran on, so it is `Send` and a
///   streaming engine can hold thousands and **migrate** them between
///   workers mid-stream — any scratch continues the decode bitwise
///   identically.
/// * **Scratch** — per-*worker* search buffers (inherited from
///   [`ScratchMatcher`]): one scratch serves every session on that worker,
///   exactly as it serves every trajectory in the batch engine. Scratch
///   contents are pure caches (warm Dijkstra pools, kNN heaps, forward
///   workspaces) and never influence decoder output.
///
/// The contract, property-tested in `tests/props_streaming.rs`:
///
/// 1. *Replay equivalence*: pushing a trajectory's points in order and
///    finalizing returns output identical to
///    [`MapMatcher::match_trajectory`] on the whole trajectory.
/// 2. *Watermark soundness*: once an update reports `stable_prefix = w`,
///    the first `w` matched points of any future `finalize` equal what
///    `finalize` would return right now.
/// 3. *Scratch independence*: pushing the same points through the same
///    session with different (or fresh) scratches yields identical
///    updates and an identical finalize — the property migration rests on.
///
/// [`MapMatcher::match_trajectory`]: crate::api::MapMatcher::match_trajectory
pub trait OnlineMatcher: ScratchMatcher {
    /// Per-session decoder state.
    type Session: Send;

    /// Opens a fresh session (no points yet).
    fn begin_session(&self) -> Self::Session;

    /// Feeds the next GPS point of the session's trajectory; returns the
    /// provisional match and the stabilized-prefix watermark.
    fn push_point(
        &self,
        scratch: &mut Self::Scratch,
        session: &mut Self::Session,
        point: GpsPoint,
    ) -> OnlineUpdate;

    /// Closes the session: runs the final (global) decode over everything
    /// pushed and stitches the route — identical to the offline
    /// [`MapMatcher::match_trajectory`] on the same points.
    ///
    /// [`MapMatcher::match_trajectory`]: crate::api::MapMatcher::match_trajectory
    fn finalize(&self, scratch: &mut Self::Scratch, session: Self::Session) -> MatchResult;

    /// Number of points pushed into `session` so far.
    fn session_len(&self, session: &Self::Session) -> usize;

    /// The session's current stabilized-prefix watermark — the value the
    /// last [`OnlineUpdate::stable_prefix`] reported (`0` before any push).
    fn session_watermark(&self, session: &Self::Session) -> usize;

    /// Whether every pushed point has reached its final match
    /// (`watermark == len`). A stable session's decode cannot be revised
    /// by its own history, only extended by future points — the
    /// eligibility test a load-aware streaming router applies before
    /// migrating a session off a hot worker (migration is *correct*
    /// regardless, because sessions are detachable; stability makes it
    /// *cheap*, nothing provisional is in flight).
    fn session_stable(&self, session: &Self::Session) -> bool {
        self.session_watermark(session) >= self.session_len(session)
    }

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
    /// also records which matcher produced them.
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
}
