//! The streaming session engine: thousands of live [`OnlineMatcher`]
//! sessions multiplexed across a worker pool behind a **load-aware
//! router**.
//!
//! The batch engine ([`crate::batch`]) answers "here are 10 000 complete
//! trajectories"; this module answers the production-shaped inverse — an
//! interleaved point stream from many concurrent devices, each device
//! wanting a provisional match per point and a final route when its trip
//! ends (or goes quiet). Large-scale matchers get their throughput from
//! keeping per-trajectory search state warm across updates (Fiedler et
//! al., 2019); here that state is the per-session decoder
//! ([`OnlineMatcher::Session`]) plus the per-worker scratch
//! (`SsspPool`/kNN heaps/forward-only workspace) every session on that
//! worker shares.
//!
//! **Architecture.** [`StreamEngine::new`] spawns `threads` workers, each
//! owning a bounded command queue, one scratch, and a session table.
//! [`StreamEngine::push`] routes a `(session id, point)` pair through the
//! engine-side router: a new session is *placed* on a worker and stays
//! there (its points are decoded in arrival order on its home worker)
//! until it ends or is *migrated*.
//! Points of *different* sessions may arrive in any interleaving. Every
//! processed point emits a [`StreamEvent::Update`] (provisional match +
//! stabilized-prefix watermark + worker-side processing time) on the
//! engine's event channel; [`StreamEngine::finish`], idle eviction, and
//! [`StreamEngine::shutdown`] emit [`StreamEvent::Finalized`] with the
//! full offline-equivalent [`MatchResult`].
//!
//! **Routing.** A stateless `id % threads` router starves some workers
//! while others queue up under skewed session-id distributions, so the
//! router places each new session by *power-of-two-choices*: sample two
//! distinct workers, place on the one with the lower instantaneous load
//! (queue depth + live sessions) — the classic balanced-allocations
//! result that exponentially tightens the load gap versus single-choice
//! hashing. The router also
//! *migrates* sessions: when the load gap between the hottest and coolest
//! worker exceeds [`StreamOptions::rebalance_threshold`], the
//! least-recently-pushed session on the hot worker is moved to the cool
//! one — but only if its decoder is **watermark-stable**
//! ([`OnlineMatcher::session_stable`]): every pushed point's final match
//! is already pinned, so nothing provisional is in flight. Migration is
//! *correct* for any session (sessions are detachable by contract and
//! scratch never influences output — `tests/props_streaming.rs` forces
//! migrations at arbitrary points and asserts bitwise offline identity);
//! stability merely makes it cheap and honest. Per-worker telemetry
//! (queue-depth high-water mark, sessions placed/migrated, points
//! processed) is exposed through [`StreamEngine::router_stats`].
//!
//! **Placement is sticky.** A session's placement entry outlives the
//! session instance: explicit finish and idle eviction leave it in place,
//! so a reopened or reused session id keeps routing to the same worker
//! and its commands stay FIFO-serialized behind the previous trip's —
//! one id can never run live on two workers at once, matching the old
//! `id % threads` guarantee. Stale entries (a few dozen bytes each) are
//! reclaimed when a detach aimed at an ended session misses.
//!
//! **Migration protocol.** The router (engine side, under one lock) keeps
//! a placement table. To move session `s` from worker `A` to `B` it sends
//! `Detach(s)` down `A`'s command queue — FIFO ordering guarantees `A`
//! first decodes every point of `s` already queued — and marks `s` *in
//! transit*, buffering any arriving commands engine-side. `A` hands the
//! detached [`OnlineMatcher::Session`] back on a reply channel; on the
//! next engine call the router forwards it to `B` as `Attach`, flushes the
//! buffered commands behind it (order preserved), and re-points the
//! placement. Because `A` sends all of `s`'s updates before the detach
//! reply and `B` decodes only after the attach, per-session event order is
//! preserved end to end.
//!
//! **Lifecycle and guarantees.**
//!
//! * A session is created implicitly by the first point carrying its id
//!   and destroyed by whichever comes first: an explicit `finish`, going
//!   idle longer than [`StreamOptions::idle_timeout_s`]
//!   (finalize-on-timeout — the trip is assumed over), or engine
//!   shutdown. Each destruction finalizes the decoder and reports the
//!   [`FinalizeReason`].
//! * Within a session, points must advance in time: a point whose
//!   timestamp is not strictly newer than the session's last accepted
//!   point is counted in [`StreamStats::late_dropped`] and skipped (the
//!   incremental decoders cannot un-push evidence).
//! * Decoding is a pure function of (model, point sequence), so for any
//!   thread count, any cross-session interleaving and any migration
//!   schedule, a session's finalized result is identical to
//!   the offline `match_trajectory` on the same points — property-tested
//!   in `tests/props_streaming.rs`.
//!
//! **Crash safety.** Worker loops run under `catch_unwind`; a panicking
//! worker is respawned in place and every session it held is rebuilt from
//! the engine-side *journal*: the router records each accepted command
//! (with a per-session monotone index), workers periodically ship
//! checkpoints of their decoder state back on the reply channel (every
//! [`StreamOptions::checkpoint_every`] accepted points), and recovery
//! restores the last checkpoint and replays the journaled tail — the
//! decode being a pure function of the point sequence makes the recovered
//! final result bitwise-identical to a fault-free run. Replayed points
//! re-emit their `Update` events (at-least-once delivery on the event
//! channel); `Finalized` results are deterministic either way. The same
//! snapshot machinery powers rolling restarts:
//! [`StreamEngine::drain_snapshots`] freezes every live session into a
//! versioned, checksummed [`SessionSnapshot`] and
//! [`StreamEngine::restore`] resumes them on a successor engine with zero
//! drops. A seeded [`FaultPlan`] can inject worker panics, command stalls
//! and reply delays for tests; recovery counters
//! (`worker_restarts`, `sessions_recovered`, `points_replayed`) surface
//! in [`RouterStats`]. See DESIGN.md §5.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trmma_traj::api::MatchResult;
use trmma_traj::online::{OnlineMatcher, OnlineUpdate};
use trmma_traj::snapshot::SnapshotError;
use trmma_traj::types::GpsPoint;

use crate::snapshot::SessionSnapshot;

/// Identifies one live trajectory (one device/trip) within the engine.
pub type SessionId = u64;

/// Tuning knobs of the streaming engine.
///
/// Mirrors [`crate::BatchOptions`]: zero-config by default, an explicit
/// thread count via [`StreamOptions::with_threads`], and chainable builder
/// methods for the rest. The knobs cover the engine's four behaviours:
///
/// * **Backpressure** — `queue_capacity` bounds each worker's command
///   queue; [`StreamEngine::push`] blocks while the session's home worker
///   is that far behind, so a slow decoder throttles its producers instead
///   of buffering unboundedly.
/// * **Late-point drop** — within a session, points must advance in time;
///   a point whose timestamp is not strictly newer than the session's last
///   accepted point is counted in [`StreamStats::late_dropped`] and
///   skipped, never decoded.
/// * **Idle eviction** — `idle_timeout_s` finalizes sessions that go
///   quiet (the trip is assumed over); `0` disables eviction.
/// * **Routing** — new sessions are placed by power-of-two-choices on
///   the less loaded of two sampled workers, and `rebalance_threshold`
///   sets the hot/cool worker load gap that triggers migration of
///   watermark-stable sessions (`0` disables migration).
///
/// ```
/// use trmma_core::StreamOptions;
///
/// // Default: hardware threads, 30 s idle eviction, 1024-deep queues,
/// // load-aware routing with migration at a load gap of 16.
/// let opts = StreamOptions::default();
/// assert_eq!(opts.threads, 0); // 0 = available_parallelism
/// assert_eq!(opts.rebalance_threshold, 16);
///
/// // Builder style, mirroring `BatchOptions::with_threads`:
/// let opts = StreamOptions::with_threads(4)
///     .idle_timeout_s(5.0)            // evict sessions quiet for 5 s
///     .queue_capacity(256)            // push() blocks 256 commands deep
///     .rebalance_threshold(0);        // no migration
/// assert_eq!(opts.threads, 4);
/// assert_eq!(opts.effective_threads(), 4);
/// assert_eq!(opts.queue_capacity, 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Worker threads; `0` uses [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Sessions idle longer than this are finalized and evicted
    /// (finalize-on-timeout). `0` or non-finite disables eviction.
    pub idle_timeout_s: f64,
    /// Bound of each worker's command queue — the engine's backpressure:
    /// [`StreamEngine::push`] blocks while the target worker is this far
    /// behind.
    pub queue_capacity: usize,
    /// Load gap (hottest minus coolest worker, in queued commands + live
    /// sessions) above which the router migrates one watermark-stable
    /// session per check off the hot worker. `0` disables automatic
    /// migration.
    pub rebalance_threshold: usize,
    /// Accepted points between per-session checkpoints: every this many
    /// accepted pushes a worker ships a snapshot of the session's decoder
    /// state back to the router, which trims the session's replay journal
    /// to the commands after it. Smaller = less replay after a crash but
    /// more serialization on the hot path; `0` disables checkpointing
    /// (recovery then replays the whole trip from the journal).
    pub checkpoint_every: usize,
    /// Deadline for [`StreamEngine::push`]'s backpressure wait: if the
    /// target worker's queue stays full this long, push gives up and
    /// returns `false` instead of blocking indefinitely. Non-finite or
    /// `0` means wait forever (the pre-supervision behaviour).
    pub push_timeout_s: f64,
    /// How many worker panics the supervisor absorbs per worker before
    /// declaring that worker permanently failed (its sessions are
    /// recovered onto surviving workers; with no survivor left the engine
    /// reports [`RecvEventError::Disconnected`]).
    pub max_worker_restarts: u32,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            idle_timeout_s: 30.0,
            queue_capacity: 1024,
            rebalance_threshold: 16,
            checkpoint_every: 64,
            push_timeout_s: 30.0,
            max_worker_restarts: 64,
        }
    }
}

impl StreamOptions {
    /// An explicit thread count (`0` = auto), other knobs at their
    /// defaults — the same shape as [`crate::BatchOptions::with_threads`].
    ///
    /// ```
    /// use trmma_core::StreamOptions;
    /// assert_eq!(StreamOptions::with_threads(2).threads, 2);
    /// ```
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, ..Self::default() }
    }

    /// Sets the idle-eviction timeout in seconds (`0` disables eviction).
    #[must_use]
    pub fn idle_timeout_s(mut self, seconds: f64) -> Self {
        self.idle_timeout_s = seconds;
        self
    }

    /// Sets the per-worker command-queue bound (minimum 1).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the load gap that triggers migration (`0` disables it).
    #[must_use]
    pub fn rebalance_threshold(mut self, gap: usize) -> Self {
        self.rebalance_threshold = gap;
        self
    }

    /// Sets the per-session checkpoint cadence (`0` disables
    /// checkpointing; recovery then replays whole trips).
    #[must_use]
    pub fn checkpoint_every(mut self, accepted_points: usize) -> Self {
        self.checkpoint_every = accepted_points;
        self
    }

    /// Sets the backpressure deadline of [`StreamEngine::push`] (`0` or
    /// non-finite waits forever).
    #[must_use]
    pub fn push_timeout_s(mut self, seconds: f64) -> Self {
        self.push_timeout_s = seconds;
        self
    }

    /// Sets the per-worker panic budget of the supervisor.
    #[must_use]
    pub fn max_worker_restarts(mut self, restarts: u32) -> Self {
        self.max_worker_restarts = restarts;
        self
    }

    /// The worker count the engine will spawn.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// The idle timeout as a duration, if eviction is enabled.
    fn idle_timeout(&self) -> Option<Duration> {
        (self.idle_timeout_s.is_finite() && self.idle_timeout_s > 0.0)
            .then(|| Duration::from_secs_f64(self.idle_timeout_s))
    }
}

/// Why a session was finalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizeReason {
    /// The caller ended the trip via [`StreamEngine::finish`].
    Explicit,
    /// The session went quiet longer than [`StreamOptions::idle_timeout_s`].
    IdleTimeout,
    /// The engine was shut down with the session still live.
    Shutdown,
}

/// What the engine reports back on its event channel.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// One GPS point was decoded into the session.
    Update {
        /// The session the point belonged to.
        session: SessionId,
        /// Zero-based index of the point within its session.
        seq: usize,
        /// Provisional match + stabilized-prefix watermark.
        update: OnlineUpdate,
        /// Worker-side seconds spent decoding this point (the per-point
        /// latency the streaming benchmark reports quantiles of).
        proc_s: f64,
    },
    /// A session ended; `result` is identical to the offline
    /// `match_trajectory` over the session's accepted points.
    Finalized {
        /// The session that ended.
        session: SessionId,
        /// What ended it.
        reason: FinalizeReason,
        /// Number of points the session decoded.
        points: usize,
        /// The final matched points and stitched route.
        result: MatchResult,
    },
}

/// Aggregate counters of one engine run (summed over workers at shutdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Points decoded (late-dropped points excluded).
    pub points: u64,
    /// Sessions implicitly opened by their first point.
    pub sessions_opened: u64,
    /// Sessions finalized by [`StreamEngine::finish`].
    pub finalized_explicit: u64,
    /// Sessions finalized by idle eviction.
    pub finalized_idle: u64,
    /// Sessions finalized live at shutdown.
    pub finalized_shutdown: u64,
    /// Points rejected for running backwards in time within their session.
    pub late_dropped: u64,
}

impl StreamStats {
    /// Sessions finalized for any reason.
    #[must_use]
    pub fn finalized(&self) -> u64 {
        self.finalized_explicit + self.finalized_idle + self.finalized_shutdown
    }

    fn merge(&mut self, other: StreamStats) {
        self.points += other.points;
        self.sessions_opened += other.sessions_opened;
        self.finalized_explicit += other.finalized_explicit;
        self.finalized_idle += other.finalized_idle;
        self.finalized_shutdown += other.finalized_shutdown;
        self.late_dropped += other.late_dropped;
    }
}

/// One worker's routing telemetry, snapshot by
/// [`StreamEngine::router_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Commands queued to the worker and not yet processed.
    pub queue_depth: usize,
    /// High-water mark of `queue_depth` over the engine's lifetime — the
    /// imbalance signal the skewed-workload benchmark reports variance of.
    pub queue_depth_hwm: usize,
    /// Sessions currently live on the worker.
    pub live_sessions: usize,
    /// GPS points the worker has decoded.
    pub points: u64,
    /// New sessions the router placed on the worker.
    pub sessions_placed: u64,
    /// Sessions migrated onto the worker.
    pub migrated_in: u64,
    /// Sessions migrated off the worker.
    pub migrated_out: u64,
    /// Points the worker rejected for running backwards in time within
    /// their session (previously visible only in the shutdown-time
    /// [`StreamStats`]).
    pub late_dropped: u64,
    /// Sessions the worker finalized by idle eviction.
    pub idle_finalized: u64,
    /// Heap allocations the worker's scratch arenas absorbed on the
    /// per-point hot path (served from recycled buffers instead of the
    /// allocator) — see `trmma_traj::ScratchStats`.
    pub allocs_avoided: u64,
}

/// Snapshot of the router's per-worker load and migration counters.
///
/// Obtained live from [`StreamEngine::router_stats`]; all counters are
/// monotone over the engine's lifetime except `queue_depth` and
/// `live_sessions`, which are instantaneous.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterStats {
    /// Per-worker telemetry, indexed by worker.
    pub workers: Vec<WorkerTelemetry>,
    /// Migrations the router initiated (detach requests sent).
    pub migrations_requested: u64,
    /// Migrations that completed (session re-attached elsewhere).
    pub migrations_completed: u64,
    /// Migrations refused by the worker because the session was not
    /// watermark-stable at detach time.
    pub migrations_refused: u64,
    /// Detach requests that found no live session (it had already
    /// finished or been idle-evicted) — these reclaim the stale placement
    /// instead of migrating.
    pub migrations_missed: u64,
    /// Panicked workers the supervisor respawned in place.
    pub worker_restarts: u64,
    /// Sessions rebuilt after a worker panic (checkpoint restore + journal
    /// replay) plus sessions resumed through [`StreamEngine::restore`].
    pub sessions_recovered: u64,
    /// Journaled points re-sent to rebuild recovered sessions (each
    /// re-emits its `Update` — at-least-once delivery under faults).
    pub points_replayed: u64,
    /// Sessions whose state could not be recovered (every worker
    /// permanently failed). Zero unless the panic budget is exhausted.
    pub sessions_lost: u64,
    /// Wall-clock seconds the supervisor spent recovering from worker
    /// deaths: joining the corpse, respawning, restoring checkpoints and
    /// replaying journal tails. Divided by [`Self::worker_restarts`] this
    /// is the mean recovery latency per crash.
    pub recovery_time_s: f64,
}

impl RouterStats {
    /// Total sessions migrated between workers.
    #[must_use]
    pub fn migrated(&self) -> u64 {
        self.migrations_completed
    }

    /// Points dropped as late across all workers (live counterpart of
    /// [`StreamStats::late_dropped`]).
    #[must_use]
    pub fn late_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.late_dropped).sum()
    }

    /// Sessions finalized by idle eviction across all workers (live
    /// counterpart of [`StreamStats::finalized_idle`]).
    #[must_use]
    pub fn idle_finalized(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_finalized).sum()
    }

    /// Heap allocations absorbed by per-worker scratch arenas across all
    /// workers (sum of [`WorkerTelemetry::allocs_avoided`]).
    #[must_use]
    pub fn allocs_avoided(&self) -> u64 {
        self.workers.iter().map(|w| w.allocs_avoided).sum()
    }
}

/// Per-worker load counters shared between the engine-side router (reads
/// for placement, writes `depth`/`depth_hwm`/`placed` on send) and the
/// worker (writes the rest as it processes commands).
#[derive(Default)]
struct WorkerLoad {
    depth: AtomicUsize,
    depth_hwm: AtomicUsize,
    live: AtomicUsize,
    points: AtomicU64,
    placed: AtomicU64,
    migrated_in: AtomicU64,
    migrated_out: AtomicU64,
    late_dropped: AtomicU64,
    idle_finalized: AtomicU64,
    allocs_avoided: AtomicU64,
}

impl WorkerLoad {
    /// The placement signal: commands not yet processed plus sessions the
    /// worker is already serving.
    fn load(&self) -> usize {
        self.depth.load(Ordering::Relaxed) + self.live.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> WorkerTelemetry {
        WorkerTelemetry {
            queue_depth: self.depth.load(Ordering::Relaxed),
            queue_depth_hwm: self.depth_hwm.load(Ordering::Relaxed),
            live_sessions: self.live.load(Ordering::Relaxed),
            points: self.points.load(Ordering::Relaxed),
            sessions_placed: self.placed.load(Ordering::Relaxed),
            migrated_in: self.migrated_in.load(Ordering::Relaxed),
            migrated_out: self.migrated_out.load(Ordering::Relaxed),
            late_dropped: self.late_dropped.load(Ordering::Relaxed),
            idle_finalized: self.idle_finalized.load(Ordering::Relaxed),
            allocs_avoided: self.allocs_avoided.load(Ordering::Relaxed),
        }
    }
}

/// Why the engine could not return an event within the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvEventError {
    /// The engine is alive but emitted nothing before the deadline — a
    /// quiet stream, not a dead one.
    Timeout,
    /// Every worker has permanently failed (panic budget exhausted) and
    /// the event buffer is drained: no event can ever arrive again.
    Disconnected,
}

impl std::fmt::Display for RecvEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout => write!(f, "no stream event within the deadline"),
            Self::Disconnected => write!(f, "stream engine has no live workers left"),
        }
    }
}

impl std::error::Error for RecvEventError {}

/// Panic payload of injected faults, so test harnesses can tell a
/// deliberately injected crash from a real matcher bug (see
/// [`FaultPlan::silence_injected_panics`]).
#[derive(Debug)]
pub struct InjectedPanic;

/// A seeded chaos schedule for tests:
/// with probability `*_per_mille`/1000 per worker command, inject a worker
/// panic (the supervisor must recover every session), stall the command
/// (queue backpressure under the push deadline), or delay a migration
/// reply (exercising the bounded reply waits). All draws come from one
/// seeded SplitMix64 stream, so a given plan replays the same fault count
/// against the same workload shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG.
    pub seed: u64,
    /// Per-command worker panic probability, in 1/1000.
    pub panic_per_mille: u32,
    /// Hard cap on injected panics over the engine's lifetime (keeps the
    /// run inside the supervisor's restart budget).
    pub max_panics: u32,
    /// Per-command stall probability, in 1/1000.
    pub stall_per_mille: u32,
    /// How long an injected stall sleeps.
    pub stall: Duration,
    /// Per-reply delay probability, in 1/1000.
    pub reply_delay_per_mille: u32,
    /// How long an injected reply delay sleeps.
    pub reply_delay: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0x000C_4A05,
            panic_per_mille: 0,
            max_panics: u32::MAX,
            stall_per_mille: 0,
            stall: Duration::from_millis(2),
            reply_delay_per_mille: 0,
            reply_delay: Duration::from_millis(2),
        }
    }
}

impl FaultPlan {
    /// A plan that panics roughly once per `1000 / per_mille` commands,
    /// capped at `max_panics` total.
    #[must_use]
    pub fn panics(seed: u64, per_mille: u32, max_panics: u32) -> Self {
        Self { seed, panic_per_mille: per_mille, max_panics, ..Self::default() }
    }

    /// Installs a process-wide panic hook that swallows [`InjectedPanic`]
    /// payloads (keeping test and benchmark output readable) while
    /// delegating every real panic to the previous hook. Call once per
    /// process before running a faulty engine.
    pub fn silence_injected_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    }
}

/// Shared mutable state of a [`FaultPlan`]: one seeded draw stream plus
/// the remaining panic budget, shared by all workers across respawns.
struct FaultState {
    plan: FaultPlan,
    rng: AtomicU64,
    panics_left: AtomicU32,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        Self { plan, rng: AtomicU64::new(plan.seed), panics_left: AtomicU32::new(plan.max_panics) }
    }

    /// One per-mille draw from the shared SplitMix64 stream.
    fn draw(&self) -> u64 {
        let mut s = self.rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 1000
    }

    /// Runs the command-level faults: maybe stall, maybe panic. Called at
    /// the *top* of command processing, so an injected panic loses the
    /// command and everything behind it in the queue — exactly what the
    /// journal replay must make whole.
    fn on_command(&self) {
        if self.plan.stall_per_mille > 0 && self.draw() < u64::from(self.plan.stall_per_mille) {
            std::thread::sleep(self.plan.stall);
        }
        if self.plan.panic_per_mille > 0
            && self.draw() < u64::from(self.plan.panic_per_mille)
            && self
                .panics_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        {
            std::panic::panic_any(InjectedPanic);
        }
    }

    /// Maybe delays a reply-channel send.
    fn on_reply(&self) {
        if self.plan.reply_delay_per_mille > 0
            && self.draw() < u64::from(self.plan.reply_delay_per_mille)
        {
            std::thread::sleep(self.plan.reply_delay);
        }
    }
}

enum Cmd<S> {
    Push {
        session: SessionId,
        point: GpsPoint,
        /// Journal index of this command (per-session, monotone across
        /// trips) — echoed back in checkpoint/ended replies so the router
        /// can trim the session's replay journal.
        idx: u64,
    },
    Finish {
        session: SessionId,
        idx: u64,
    },
    /// Hand the session's decoder state back to the router (migration or
    /// snapshot drain). With `stable_only`, refuse unless the session is
    /// watermark-stable.
    Detach {
        session: SessionId,
        stable_only: bool,
    },
    /// Adopt a session detached from another worker (`restored: false`)
    /// or rebuilt by crash recovery / [`StreamEngine::restore`]
    /// (`restored: true` — not counted as a migration).
    Attach {
        session: SessionId,
        live: Box<Live<S>>,
        restored: bool,
    },
}

/// What workers report back to the router (engine side).
enum Reply<S> {
    /// Detach succeeded; the state travels back through the router, which
    /// forwards it to the target worker.
    Detached { session: SessionId, live: Box<Live<S>> },
    /// Detach refused: the session was not watermark-stable.
    DetachRefused { session: SessionId },
    /// Detach found no such session (it was evicted or finished first).
    DetachMiss { session: SessionId },
    /// Periodic checkpoint: the session's serialized decoder state after
    /// processing command `idx`. The router keeps the latest and trims
    /// the session's journal to the commands after `idx`.
    Checkpoint { session: SessionId, idx: u64, seq: usize, last_t: f64, payload: Vec<u8> },
    /// The worker finalized a trip (explicit finish or idle eviction)
    /// whose last processed command was `idx`: the router drops the
    /// trip's checkpoint and journal prefix.
    Ended { session: SessionId, idx: u64 },
}

struct Live<S> {
    session: S,
    seq: usize,
    last_t: f64,
    last_seen: Instant,
    /// Journal index of the last Push/Finish processed for this session
    /// (echoed in checkpoint/ended replies).
    last_idx: u64,
    /// Accepted points since the last checkpoint.
    since_ckpt: usize,
}

impl<S> Live<S> {
    fn fresh(session: S) -> Self {
        Self {
            session,
            seq: 0,
            last_t: f64::NEG_INFINITY,
            last_seen: Instant::now(),
            last_idx: 0,
            since_ckpt: 0,
        }
    }
}

/// A command buffered engine-side while its session is in transit between
/// workers. The journal index was assigned when the command was accepted
/// (the command is already journaled — recovery replays the journal and
/// discards the pending buffer).
enum Pending {
    Point(u64, GpsPoint),
    Finish(u64),
}

/// One journaled command of a session.
#[derive(Clone)]
enum JCmd {
    Point(GpsPoint),
    Finish,
}

/// The engine-side crash-recovery record of one session id: the latest
/// worker checkpoint plus every accepted command after it. Invariant:
/// restoring `ckpt` (or a fresh session when `None`) and replaying `tail`
/// in order reconstructs the worker-held state exactly — late-point drops
/// and trip reopenings re-decide deterministically during replay.
struct SessionLog {
    /// Next journal index to assign (monotone per id, never reset).
    next_idx: u64,
    ckpt: Option<Ckpt>,
    /// `(idx, command)` for every accepted command after the checkpoint.
    tail: Vec<(u64, JCmd)>,
}

/// The payload + engine-side counters of one worker checkpoint.
struct Ckpt {
    /// Journal index of the last command folded into the payload.
    idx: u64,
    payload: Vec<u8>,
    seq: usize,
    last_t: f64,
}

impl SessionLog {
    fn new() -> Self {
        Self { next_idx: 0, ckpt: None, tail: Vec::new() }
    }

    /// Applies a checkpoint taken after command `ckpt.idx`.
    fn on_checkpoint(&mut self, ckpt: Ckpt) {
        self.tail.retain(|&(i, _)| i > ckpt.idx);
        self.ckpt = Some(ckpt);
    }

    /// Applies a trip end whose last processed command was `idx`;
    /// returns whether the log is now empty (safe to drop).
    fn on_ended(&mut self, idx: u64) -> bool {
        self.ckpt = None;
        self.tail.retain(|&(i, _)| i > idx);
        self.tail.is_empty()
    }
}

/// Where a session currently lives, from the router's point of view.
///
/// Placements are **sticky**: they outlive the session instance (explicit
/// finish, idle eviction), so a reused or reopened session id keeps
/// routing to the same worker — its commands stay FIFO-serialized behind
/// the previous trip's, exactly as under the old `id % threads` router.
/// (Removing the entry eagerly would race the worker: a finalize or
/// eviction on the worker with commands still in flight could let one
/// session id run live on two workers at once.) A stale entry costs a few
/// dozen bytes; finished entries are pruned once their worker's queue has
/// drained (the Finish provably processed — see
/// `StreamEngine::prune_finished`), and evicted-but-never-finished ones
/// are reclaimed when a detach aimed at them misses.
enum Placement {
    /// Decoding on `worker`; `last_push` drives the migrate-the-idlest
    /// heuristic. `finished` means a Finish was the last command forwarded
    /// — the entry is only kept to serialize a possible id reuse, and is
    /// safe to prune once the worker's queue has drained.
    On { worker: usize, last_push: Instant, finished: bool },
    /// Detach requested `from` its old worker; commands buffer in
    /// `pending` (in order, capped at the queue capacity — push blocks
    /// past that) until the state lands on `to` (or the detach is refused
    /// and the session stays on `from`).
    InTransit { from: usize, to: usize, pending: Vec<Pending> },
}

/// Engine-side router state, behind the engine's mutex. The worker
/// channels and join handles live here too (not on the engine) so the
/// supervisor can swap them atomically with the routing state when it
/// respawns a panicked worker.
struct Router<S> {
    txs: Vec<SyncSender<Cmd<S>>>,
    /// `None` while a dead worker is being joined/respawned.
    handles: Vec<Option<JoinHandle<(StreamStats, bool)>>>,
    /// Workers that exhausted the restart budget and stay down.
    failed: Vec<bool>,
    /// Stats banked from joined (panicked) worker incarnations.
    banked: StreamStats,
    place: HashMap<SessionId, Placement>,
    /// Per-session crash-recovery journals (checkpoint + command tail).
    logs: HashMap<SessionId, SessionLog>,
    replies: Receiver<Reply<S>>,
    /// SplitMix64 state for power-of-two-choices sampling (deterministic;
    /// placement affects only scheduling, never output).
    rng: u64,
    pushes: u64,
    migrations_requested: u64,
    migrations_completed: u64,
    migrations_refused: u64,
    migrations_missed: u64,
    worker_restarts: u64,
    sessions_recovered: u64,
    points_replayed: u64,
    sessions_lost: u64,
    recovery_time_s: f64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn finalize_one<M: OnlineMatcher>(
    matcher: &M,
    scratch: &mut M::Scratch,
    id: SessionId,
    live: Live<M::Session>,
    reason: FinalizeReason,
    events: &Sender<StreamEvent>,
) {
    let result = matcher.finalize(scratch, live.session);
    let _ = events.send(StreamEvent::Finalized { session: id, reason, points: live.seq, result });
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn worker_loop<M: OnlineMatcher>(
    matcher: &M,
    rx: &Receiver<Cmd<M::Session>>,
    events: &Sender<StreamEvent>,
    replies: &Sender<Reply<M::Session>>,
    load: &WorkerLoad,
    idle: Option<Duration>,
    checkpoint_every: usize,
    faults: Option<&FaultState>,
    stats: &mut StreamStats,
) {
    let mut scratch = matcher.make_scratch();
    let mut live: HashMap<SessionId, Live<M::Session>> = HashMap::new();
    // The tick bounds both how long a quiet worker sleeps between idle
    // sweeps and how often a busy one pays the O(live sessions) sweep.
    let tick = idle.map_or(Duration::from_millis(500), |d| {
        (d / 4).clamp(Duration::from_millis(5), Duration::from_millis(500))
    });
    let mut last_sweep = Instant::now();
    loop {
        match rx.recv_timeout(tick) {
            Ok(cmd) => {
                // Injected faults fire *before* any state change: a lost
                // command is journaled-but-unapplied, which is exactly
                // what the supervisor's replay reconstructs.
                if let Some(f) = faults {
                    f.on_command();
                }
                match cmd {
                    Cmd::Push { session, point, idx } => {
                        let entry = live.entry(session).or_insert_with(|| {
                            stats.sessions_opened += 1;
                            load.live.fetch_add(1, Ordering::Relaxed);
                            Live::fresh(matcher.begin_session())
                        });
                        entry.last_seen = Instant::now();
                        entry.last_idx = idx;
                        if point.t <= entry.last_t {
                            stats.late_dropped += 1;
                            load.late_dropped.fetch_add(1, Ordering::Relaxed);
                        } else {
                            let t0 = Instant::now();
                            let update =
                                matcher.push_point(&mut scratch, &mut entry.session, point);
                            let proc_s = t0.elapsed().as_secs_f64();
                            entry.last_t = point.t;
                            let seq = entry.seq;
                            entry.seq += 1;
                            stats.points += 1;
                            load.points.fetch_add(1, Ordering::Relaxed);
                            let _ =
                                events.send(StreamEvent::Update { session, seq, update, proc_s });
                            entry.since_ckpt += 1;
                            if entry.since_ckpt >= checkpoint_every {
                                entry.since_ckpt = 0;
                                let mut payload = Vec::new();
                                matcher.snapshot_session(&entry.session, &mut payload);
                                if let Some(f) = faults {
                                    f.on_reply();
                                }
                                let _ = replies.send(Reply::Checkpoint {
                                    session,
                                    idx,
                                    seq: entry.seq,
                                    last_t: entry.last_t,
                                    payload,
                                });
                            }
                        }
                    }
                    Cmd::Finish { session, idx } => {
                        if let Some(l) = live.remove(&session) {
                            load.live.fetch_sub(1, Ordering::Relaxed);
                            finalize_one(
                                matcher,
                                &mut scratch,
                                session,
                                l,
                                FinalizeReason::Explicit,
                                events,
                            );
                            stats.finalized_explicit += 1;
                        }
                        // Acknowledge even a no-op finish (trip already
                        // evicted): the router trims its journal on this.
                        if let Some(f) = faults {
                            f.on_reply();
                        }
                        let _ = replies.send(Reply::Ended { session, idx });
                    }
                    Cmd::Detach { session, stable_only } => {
                        if let Some(f) = faults {
                            f.on_reply();
                        }
                        match live.remove(&session) {
                            None => {
                                let _ = replies.send(Reply::DetachMiss { session });
                            }
                            Some(l) if stable_only && !matcher.session_stable(&l.session) => {
                                live.insert(session, l);
                                let _ = replies.send(Reply::DetachRefused { session });
                            }
                            Some(l) => {
                                load.live.fetch_sub(1, Ordering::Relaxed);
                                load.migrated_out.fetch_add(1, Ordering::Relaxed);
                                let _ =
                                    replies.send(Reply::Detached { session, live: Box::new(l) });
                            }
                        }
                    }
                    Cmd::Attach { session, live: l, restored } => {
                        load.live.fetch_add(1, Ordering::Relaxed);
                        if !restored {
                            load.migrated_in.fetch_add(1, Ordering::Relaxed);
                        }
                        let mut l = *l;
                        l.last_seen = Instant::now();
                        live.insert(session, l);
                    }
                }
                // Decrement *after* processing: an observer then always
                // sees the command in `depth` or its session in `live`,
                // never a spurious zero load in between.
                load.depth.fetch_sub(1, Ordering::Relaxed);
                // Publish the scratch's monotone counter as a plain store:
                // a respawned worker starts a fresh scratch, and the
                // telemetry should report the live scratch's view.
                load.allocs_avoided
                    .store(M::scratch_stats(&scratch).allocs_avoided, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(idle) = idle {
            if last_sweep.elapsed() >= tick {
                last_sweep = Instant::now();
                let now = Instant::now();
                let expired: Vec<SessionId> = live
                    .iter()
                    .filter(|(_, l)| now.duration_since(l.last_seen) >= idle)
                    .map(|(&id, _)| id)
                    .collect();
                for id in expired {
                    let l = live.remove(&id).expect("expired session is live");
                    load.live.fetch_sub(1, Ordering::Relaxed);
                    load.idle_finalized.fetch_add(1, Ordering::Relaxed);
                    let last_idx = l.last_idx;
                    finalize_one(matcher, &mut scratch, id, l, FinalizeReason::IdleTimeout, events);
                    stats.finalized_idle += 1;
                    let _ = replies.send(Reply::Ended { session: id, idx: last_idx });
                    // The router is NOT told to re-place: its sticky
                    // placement keeps routing this id here, so a later
                    // point (a new trip) reopens on this worker instead
                    // of racing onto another one.
                }
            }
        }
    }
    // Engine dropped its senders: flush every remaining session.
    for (id, l) in live.drain() {
        load.live.fetch_sub(1, Ordering::Relaxed);
        finalize_one(matcher, &mut scratch, id, l, FinalizeReason::Shutdown, events);
        stats.finalized_shutdown += 1;
    }
}

/// The next backpressure sleep of [`StreamEngine::push`] as of `now`:
/// `backoff` clamped to the time remaining before `deadline`, or `None`
/// when the deadline has already passed. The clamp is what pins the
/// observable timeout to `push_timeout_s`: without it, a retry landing
/// just before the deadline would re-sleep a full (up to 5 ms) backoff
/// step and overshoot the configured bound.
fn clamped_backoff(deadline: Option<Instant>, now: Instant, backoff: Duration) -> Option<Duration> {
    match deadline {
        None => Some(backoff),
        Some(d) => {
            let remaining = d.checked_duration_since(now)?;
            if remaining.is_zero() {
                None
            } else {
                Some(backoff.min(remaining))
            }
        }
    }
}

/// The multiplexer; see module docs for the architecture and guarantees.
pub struct StreamEngine<M: OnlineMatcher + 'static> {
    matcher: Arc<M>,
    events: Receiver<StreamEvent>,
    /// Kept so respawned workers can clone the event sender (and so the
    /// event channel outlives a full worker wipe-out).
    etx: Sender<StreamEvent>,
    /// Same, for the reply channel.
    rtx: Sender<Reply<M::Session>>,
    loads: Arc<Vec<WorkerLoad>>,
    router: Mutex<Router<M::Session>>,
    rebalance_gap: usize,
    queue_cap: usize,
    idle: Option<Duration>,
    checkpoint_every: usize,
    push_timeout: Option<Duration>,
    max_restarts: u32,
    faults: Option<Arc<FaultState>>,
}

impl<M: OnlineMatcher + 'static> StreamEngine<M> {
    /// Spawns the worker pool around a shared matcher.
    #[must_use]
    pub fn new(matcher: Arc<M>, opts: StreamOptions) -> Self {
        Self::build(matcher, opts, None)
    }

    /// Like [`StreamEngine::new`], but with an active fault-injection
    /// plan: workers panic/stall and replies lag per `plan`, and the
    /// supervisor is expected to keep every session whole regardless.
    /// Tests only — a production engine runs fault-free.
    #[must_use]
    pub fn with_faults(matcher: Arc<M>, opts: StreamOptions, plan: FaultPlan) -> Self {
        Self::build(matcher, opts, Some(Arc::new(FaultState::new(plan))))
    }

    fn build(matcher: Arc<M>, opts: StreamOptions, faults: Option<Arc<FaultState>>) -> Self {
        let threads = opts.effective_threads().max(1);
        let idle = opts.idle_timeout();
        let checkpoint_every = opts.checkpoint_every.max(1);
        let queue_cap = opts.queue_capacity.max(1);
        let push_timeout = (opts.push_timeout_s > 0.0 && opts.push_timeout_s.is_finite())
            .then(|| Duration::from_secs_f64(opts.push_timeout_s));
        let (etx, events) = channel();
        let (rtx, replies) = channel();
        let loads: Arc<Vec<WorkerLoad>> =
            Arc::new((0..threads).map(|_| WorkerLoad::default()).collect());
        let mut txs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let (tx, handle) = Self::spawn_worker(
                &matcher,
                w,
                queue_cap,
                &etx,
                &rtx,
                &loads,
                idle,
                checkpoint_every,
                faults.clone(),
            );
            txs.push(tx);
            handles.push(Some(handle));
        }
        let router = Mutex::new(Router {
            txs,
            handles,
            failed: vec![false; threads],
            banked: StreamStats::default(),
            place: HashMap::new(),
            logs: HashMap::new(),
            replies,
            rng: 0x7272_6D6D_615F_7232, // arbitrary fixed seed: "trmma_r2"
            pushes: 0,
            migrations_requested: 0,
            migrations_completed: 0,
            migrations_refused: 0,
            migrations_missed: 0,
            worker_restarts: 0,
            sessions_recovered: 0,
            points_replayed: 0,
            sessions_lost: 0,
            recovery_time_s: 0.0,
        });
        Self {
            matcher,
            events,
            etx,
            rtx,
            loads,
            router,
            rebalance_gap: opts.rebalance_threshold,
            queue_cap,
            idle,
            checkpoint_every,
            push_timeout,
            max_restarts: opts.max_worker_restarts,
            faults,
        }
    }

    /// Spawns one worker thread at slot `w`: a fresh bounded command
    /// channel plus a panic-trapping wrapper that returns the worker's
    /// stats and whether it died by panic.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn spawn_worker(
        matcher: &Arc<M>,
        w: usize,
        queue_cap: usize,
        etx: &Sender<StreamEvent>,
        rtx: &Sender<Reply<M::Session>>,
        loads: &Arc<Vec<WorkerLoad>>,
        idle: Option<Duration>,
        checkpoint_every: usize,
        faults: Option<Arc<FaultState>>,
    ) -> (SyncSender<Cmd<M::Session>>, JoinHandle<(StreamStats, bool)>) {
        let (tx, rx) = sync_channel(queue_cap);
        let m = matcher.clone();
        let e = etx.clone();
        let r = rtx.clone();
        let ld = loads.clone();
        let handle = std::thread::spawn(move || {
            let mut stats = StreamStats::default();
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                worker_loop(
                    &*m,
                    &rx,
                    &e,
                    &r,
                    &ld[w],
                    idle,
                    checkpoint_every,
                    faults.as_deref(),
                    &mut stats,
                );
            }))
            .is_err();
            (stats, panicked)
        });
        (tx, handle)
    }

    /// The shared model.
    #[must_use]
    pub fn matcher(&self) -> &M {
        &self.matcher
    }

    /// Worker count (including permanently failed slots).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.loads.len()
    }

    /// Sends a command to `worker`, accounting queue depth; blocks while
    /// the worker's queue is full. Used for the rare, small command
    /// bursts of the migration/finish paths — the per-point hot path
    /// ([`StreamEngine::push`]) uses a lock-released `try_send` loop
    /// instead, so only these bounded sends ever hold the router lock
    /// across a wait. Returns `false` if the worker is gone (it panicked
    /// — shutdown will surface that).
    fn send_to(&self, router: &Router<M::Session>, worker: usize, cmd: Cmd<M::Session>) -> bool {
        let load = &self.loads[worker];
        let depth = load.depth.fetch_add(1, Ordering::Relaxed) + 1;
        load.depth_hwm.fetch_max(depth, Ordering::Relaxed);
        if router.txs[worker].send(cmd).is_ok() {
            true
        } else {
            load.depth.fetch_sub(1, Ordering::Relaxed);
            false
        }
    }

    /// Picks the worker for a brand-new session by power-of-two-choices,
    /// skipping permanently failed slots. Callers guarantee at least one
    /// worker is alive.
    #[allow(clippy::cast_possible_truncation)]
    fn place_new(&self, router: &mut Router<M::Session>) -> usize {
        let alive: Vec<usize> = (0..router.txs.len()).filter(|&w| !router.failed[w]).collect();
        let n = alive.len();
        debug_assert!(n > 0, "place_new requires a live worker");
        let w = if n == 1 {
            alive[0]
        } else {
            // Two distinct uniform picks; keep the less loaded.
            let ai = (splitmix64(&mut router.rng) % n as u64) as usize;
            let mut bi = (splitmix64(&mut router.rng) % (n - 1) as u64) as usize;
            if bi >= ai {
                bi += 1;
            }
            let (a, b) = (alive[ai], alive[bi]);
            if self.loads[b].load() < self.loads[a].load() {
                b
            } else {
                a
            }
        };
        self.loads[w].placed.fetch_add(1, Ordering::Relaxed);
        w
    }

    /// The least-loaded worker that has not permanently failed.
    fn pick_survivor(&self, router: &Router<M::Session>) -> Option<usize> {
        (0..router.txs.len()).filter(|&w| !router.failed[w]).min_by_key(|&w| self.loads[w].load())
    }

    /// Forwards the commands buffered while a session was in transit and
    /// re-points its (sticky) placement at `worker`. With `gc_if_empty`
    /// and nothing buffered, the placement is dropped instead — the one
    /// place stale entries of ended sessions are reclaimed.
    fn settle(
        &self,
        router: &mut Router<M::Session>,
        session: SessionId,
        worker: usize,
        pending: Vec<Pending>,
        gc_if_empty: bool,
    ) {
        if gc_if_empty && pending.is_empty() {
            router.place.remove(&session);
            return;
        }
        let finished = matches!(pending.last(), Some(Pending::Finish(_)));
        for cmd in pending {
            match cmd {
                Pending::Point(idx, point) => {
                    self.send_to(router, worker, Cmd::Push { session, point, idx });
                }
                Pending::Finish(idx) => {
                    self.send_to(router, worker, Cmd::Finish { session, idx });
                }
            }
        }
        router.place.insert(session, Placement::On { worker, last_push: Instant::now(), finished });
    }

    /// Takes `session` out of transit, or `None` if it is not in transit —
    /// a reply referring to it is stale (e.g. crash recovery already
    /// re-homed the id) and must be dropped without touching the placement.
    fn take_transit(
        router: &mut Router<M::Session>,
        session: SessionId,
    ) -> Option<(usize, usize, Vec<Pending>)> {
        match router.place.get_mut(&session) {
            Some(Placement::InTransit { from, to, pending }) => {
                let out = (*from, *to, std::mem::take(pending));
                router.place.remove(&session);
                Some(out)
            }
            _ => None,
        }
    }

    /// Applies one worker reply to the routing table.
    fn apply_reply(&self, router: &mut Router<M::Session>, reply: Reply<M::Session>) {
        match reply {
            Reply::Checkpoint { session, idx, seq, last_t, payload } => {
                // A checkpoint for an untracked session means the trip
                // already ended and its journal was dropped — ignore.
                if let Some(log) = router.logs.get_mut(&session) {
                    log.on_checkpoint(Ckpt { idx, payload, seq, last_t });
                }
            }
            Reply::Ended { session, idx } => {
                if let Some(log) = router.logs.get_mut(&session) {
                    if log.on_ended(idx) {
                        router.logs.remove(&session);
                    }
                }
            }
            Reply::Detached { session, live } => {
                let Some((_, to, pending)) = Self::take_transit(router, session) else {
                    // Stale: the state was already rebuilt elsewhere (crash
                    // recovery) or the router never tracked the detach.
                    return;
                };
                router.migrations_completed += 1;
                // If the target slot died permanently while the state was
                // in flight, land on a survivor instead.
                let to = if router.failed[to] {
                    match self.pick_survivor(router) {
                        Some(w) => w,
                        None => {
                            router.sessions_lost += 1;
                            router.logs.remove(&session);
                            return;
                        }
                    }
                } else {
                    to
                };
                self.send_to(router, to, Cmd::Attach { session, live, restored: false });
                self.settle(router, session, to, pending, false);
            }
            Reply::DetachRefused { session } => {
                let Some((from, _, pending)) = Self::take_transit(router, session) else {
                    return;
                };
                router.migrations_refused += 1;
                // The session never moved: flush the buffer back to its
                // old worker and keep the placement there.
                self.settle(router, session, from, pending, false);
            }
            Reply::DetachMiss { session } => {
                let Some((_, to, pending)) = Self::take_transit(router, session) else {
                    return;
                };
                router.migrations_missed += 1;
                // The instance ended (evicted/finished) before the detach
                // arrived. With nothing buffered this reclaims the stale
                // placement; buffered commands open a fresh trip on the
                // target instead.
                let to = if router.failed[to] {
                    match self.pick_survivor(router) {
                        Some(w) => w,
                        None => {
                            router.place.remove(&session);
                            return;
                        }
                    }
                } else {
                    to
                };
                self.settle(router, session, to, pending, true);
            }
        }
    }

    /// Drains worker replies without blocking, then runs one supervision
    /// pass (respawn + recovery of any worker that died since the last
    /// call). Every engine entry point funnels through here, so a panicked
    /// worker is healed by whichever call touches the engine next.
    fn drain_replies(&self, router: &mut Router<M::Session>) {
        loop {
            let Ok(reply) = router.replies.try_recv() else { break };
            self.apply_reply(router, reply);
        }
        self.supervise(router);
    }

    /// Detects dead workers, banks their stats, respawns them in place
    /// (within the restart budget — past it the slot is marked failed) and
    /// rebuilds every session they held from its latest checkpoint plus
    /// the journaled command tail, replayed in order with the original
    /// journal indices. Replayed points re-emit their `Update` events:
    /// delivery under faults is at-least-once, but the rebuilt decoder
    /// state — and therefore every final match — is bitwise-identical to a
    /// fault-free run.
    fn supervise(&self, router: &mut Router<M::Session>) {
        let dead: Vec<usize> = (0..router.handles.len())
            .filter(|&w| router.handles[w].as_ref().is_some_and(JoinHandle::is_finished))
            .collect();
        if dead.is_empty() {
            return;
        }
        let recovery_started = Instant::now();
        for &w in &dead {
            let handle = router.handles[w].take().expect("dead worker has a handle");
            let (stats, _panicked) = handle.join().unwrap_or((StreamStats::default(), true));
            router.banked.merge(stats);
        }
        // Everything the dead workers sent happened-before the joins
        // above: fold in their last checkpoints/acks before deciding what
        // needs rebuilding.
        loop {
            let Ok(reply) = router.replies.try_recv() else { break };
            self.apply_reply(router, reply);
        }
        for &w in &dead {
            // The dead incarnation's queue and live set died with it.
            self.loads[w].depth.store(0, Ordering::Relaxed);
            self.loads[w].live.store(0, Ordering::Relaxed);
            if router.worker_restarts < u64::from(self.max_restarts) {
                router.worker_restarts += 1;
                let (tx, handle) = Self::spawn_worker(
                    &self.matcher,
                    w,
                    self.queue_cap,
                    &self.etx,
                    &self.rtx,
                    &self.loads,
                    self.idle,
                    self.checkpoint_every,
                    self.faults.clone(),
                );
                router.txs[w] = tx;
                router.handles[w] = Some(handle);
            } else {
                router.failed[w] = true;
            }
        }
        // Re-home every session the dead workers held. In-transit sessions
        // whose *source* died lost their state (it was in the worker or in
        // a dropped command): rebuild on the migration target and discard
        // the pending buffer — every pending command is already journaled.
        // (A dead *target* needs no action here: the detached state is
        // still safe on the source or in the reply channel, and the attach
        // lands on the respawned slot — or is redirected by `apply_reply`
        // if the slot failed permanently.)
        let victims: Vec<(SessionId, usize)> = router
            .place
            .iter()
            .filter_map(|(&sid, p)| match p {
                Placement::On { worker, .. } if dead.contains(worker) => Some((sid, *worker)),
                Placement::InTransit { from, to, .. } if dead.contains(from) => Some((sid, *to)),
                _ => None,
            })
            .collect();
        for (sid, target) in victims {
            // A placement with nothing journaled is sticky routing state
            // for a trip that already ended cleanly (its `Finalized` event
            // was delivered before `Ended` trimmed the journal). Reclaim
            // it here — before the survivor check — so a total worker
            // failure never double-counts a finished trip as lost.
            let stale = match router.logs.get(&sid) {
                None => true,
                Some(log) => log.ckpt.is_none() && log.tail.is_empty(),
            };
            if stale {
                router.place.remove(&sid);
                router.logs.remove(&sid);
                continue;
            }
            let target =
                if router.failed[target] { self.pick_survivor(router) } else { Some(target) };
            let ok = target.is_some_and(|t| self.recover_session(router, sid, t));
            if !ok {
                router.sessions_lost += 1;
                router.place.remove(&sid);
                router.logs.remove(&sid);
            }
        }
        router.recovery_time_s += recovery_started.elapsed().as_secs_f64();
    }

    /// Rebuilds one session onto `target`: restore its latest checkpoint
    /// (or begin fresh if none), attach, then replay the journal tail with
    /// the original indices. Returns `false` only if the checkpoint fails
    /// to restore (the caller counts the session lost).
    fn recover_session(
        &self,
        router: &mut Router<M::Session>,
        sid: SessionId,
        target: usize,
    ) -> bool {
        let Some(log) = router.logs.get(&sid) else {
            // Nothing journaled: the trip had fully ended — the placement
            // was only sticky routing state.
            router.place.remove(&sid);
            return true;
        };
        if log.ckpt.is_none() && log.tail.is_empty() {
            router.place.remove(&sid);
            router.logs.remove(&sid);
            return true;
        }
        let live = match &log.ckpt {
            Some(c) => match self.matcher.restore_session(&c.payload) {
                Ok(s) => Live {
                    session: s,
                    seq: c.seq,
                    last_t: c.last_t,
                    last_seen: Instant::now(),
                    last_idx: c.idx,
                    since_ckpt: 0,
                },
                Err(_) => return false,
            },
            None => Live::fresh(self.matcher.begin_session()),
        };
        let tail = log.tail.clone();
        self.send_to(
            router,
            target,
            Cmd::Attach { session: sid, live: Box::new(live), restored: true },
        );
        let mut finished = false;
        for (idx, cmd) in tail {
            match cmd {
                JCmd::Point(point) => {
                    finished = false;
                    router.points_replayed += 1;
                    self.send_to(router, target, Cmd::Push { session: sid, point, idx });
                }
                JCmd::Finish => {
                    finished = true;
                    self.send_to(router, target, Cmd::Finish { session: sid, idx });
                }
            }
        }
        router.sessions_recovered += 1;
        router
            .place
            .insert(sid, Placement::On { worker: target, last_push: Instant::now(), finished });
        true
    }

    /// Starts moving `session` to worker `to`; `stable_only` lets the
    /// worker refuse unless the session is watermark-stable.
    fn start_migration(
        &self,
        router: &mut Router<M::Session>,
        session: SessionId,
        to: usize,
        stable_only: bool,
    ) -> bool {
        if to >= router.txs.len() || router.failed[to] {
            return false;
        }
        let from = match router.place.get(&session) {
            Some(&Placement::On { worker, .. }) if worker != to => worker,
            _ => return false,
        };
        if !self.send_to(router, from, Cmd::Detach { session, stable_only }) {
            return false;
        }
        router.migrations_requested += 1;
        router.place.insert(session, Placement::InTransit { from, to, pending: Vec::new() });
        true
    }

    /// One rebalance check: if the hottest worker is more than the
    /// configured gap ahead of the coolest, migrate its least-recently
    /// pushed session there (watermark-stable sessions only).
    fn maybe_rebalance(&self, router: &mut Router<M::Session>) {
        if self.rebalance_gap == 0 || router.txs.len() < 2 {
            return;
        }
        let loads: Vec<usize> = self.loads.iter().map(WorkerLoad::load).collect();
        let alive = || (0..loads.len()).filter(|&w| !router.failed[w]);
        let Some(hot) = alive().max_by_key(|&w| loads[w]) else { return };
        let Some(cool) = alive().min_by_key(|&w| loads[w]) else { return };
        if loads[hot] - loads[cool] <= self.rebalance_gap {
            return;
        }
        let candidate = router
            .place
            .iter()
            .filter_map(|(&sid, p)| match p {
                Placement::On { worker, last_push, finished: false } if *worker == hot => {
                    Some((sid, *last_push))
                }
                _ => None,
            })
            .min_by_key(|&(_, t)| t)
            .map(|(sid, _)| sid);
        if let Some(sid) = candidate {
            self.start_migration(router, sid, cool, true);
        }
    }

    /// Feeds the next point of `session` (opening it if unseen), blocking
    /// (with exponential backoff, up to [`StreamOptions::push_timeout_s`])
    /// while the session's home worker queue is full. A worker panic midway
    /// is healed in place: the supervisor respawns it and this call
    /// retries. Returns `false` only when the deadline expires or every
    /// worker has permanently failed.
    pub fn push(&self, session: SessionId, point: GpsPoint) -> bool {
        // The routing decision needs the router lock, but the wait for a
        // full worker queue must not: a blocking send under the lock
        // would stall every other producer (and finish/migrate/stats) on
        // one hot worker. So: decide and try_send under the lock; on a
        // full queue, release the lock, wait briefly, re-resolve — the
        // placement may legitimately have moved (migration) meanwhile.
        let deadline = self.push_timeout.map(|d| Instant::now() + d);
        let mut backoff = Duration::from_micros(20);
        loop {
            let mut router = self.router.lock().expect("router poisoned");
            self.drain_replies(&mut router);
            if router.failed.iter().all(|&f| f) {
                return false;
            }
            let r = &mut *router;
            let worker = match r.place.get_mut(&session) {
                Some(Placement::InTransit { pending, .. }) => {
                    // The transit buffer honours the same bound as a
                    // worker queue: past it, push blocks (lock released)
                    // until the migration resolves — each retry's
                    // drain_replies drives that resolution.
                    if pending.len() >= self.queue_cap {
                        drop(router);
                        let Some(sleep) = clamped_backoff(deadline, Instant::now(), backoff) else {
                            return false;
                        };
                        std::thread::sleep(sleep);
                        backoff = (backoff * 2).min(Duration::from_millis(5));
                        continue;
                    }
                    // Accepted into the transit buffer: journal now — on a
                    // crash the journal is replayed and the buffer
                    // discarded, so buffered commands must be a subset of
                    // the journal from the moment they exist.
                    let log = r.logs.entry(session).or_insert_with(SessionLog::new);
                    let idx = log.next_idx;
                    log.next_idx += 1;
                    log.tail.push((idx, JCmd::Point(point)));
                    pending.push(Pending::Point(idx, point));
                    self.after_push(r);
                    return true;
                }
                Some(Placement::On { worker, last_push, finished }) => {
                    *last_push = Instant::now();
                    *finished = false;
                    *worker
                }
                None => {
                    let w = self.place_new(r);
                    r.place.insert(
                        session,
                        Placement::On { worker: w, last_push: Instant::now(), finished: false },
                    );
                    w
                }
            };
            let load = &self.loads[worker];
            let depth = load.depth.fetch_add(1, Ordering::Relaxed) + 1;
            load.depth_hwm.fetch_max(depth, Ordering::Relaxed);
            // Peek the journal index; commit the entry only once the send
            // is accepted (a retry must not journal the point twice).
            let idx = r.logs.get(&session).map_or(0, |l| l.next_idx);
            match r.txs[worker].try_send(Cmd::Push { session, point, idx }) {
                Ok(()) => {
                    let log = r.logs.entry(session).or_insert_with(SessionLog::new);
                    log.next_idx = idx + 1;
                    log.tail.push((idx, JCmd::Point(point)));
                    self.after_push(r);
                    return true;
                }
                Err(std::sync::mpsc::TrySendError::Full(_)) => {
                    load.depth.fetch_sub(1, Ordering::Relaxed);
                    drop(router);
                    // Backpressure: the worker is queue_capacity behind.
                    let Some(sleep) = clamped_backoff(deadline, Instant::now(), backoff) else {
                        return false;
                    };
                    std::thread::sleep(sleep);
                    backoff = (backoff * 2).min(Duration::from_millis(5));
                }
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => {
                    load.depth.fetch_sub(1, Ordering::Relaxed);
                    // The worker panicked between drain_replies and the
                    // send: retry — the next drain supervises the respawn.
                    drop(router);
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return false;
                    }
                }
            }
        }
    }

    /// Post-push bookkeeping under the router lock: the push counter, the
    /// periodic rebalance check, and the periodic sweep of finished
    /// placements.
    fn after_push(&self, router: &mut Router<M::Session>) {
        router.pushes += 1;
        if router.pushes.is_multiple_of(64) {
            self.maybe_rebalance(router);
        }
        if router.pushes.is_multiple_of(1024) {
            self.prune_finished(router);
        }
    }

    /// Removes placements whose trip was finished AND whose worker's queue
    /// has since drained: the engine is the only sender (always under this
    /// lock), so an observed depth of 0 proves the Finish was processed
    /// and no live instance remains — removing the entry cannot split a
    /// session. Bounds the placement table by the live session count plus
    /// ids evicted-but-never-finished (those are reclaimed by detach-miss
    /// instead).
    fn prune_finished(&self, router: &mut Router<M::Session>) {
        let drained: Vec<bool> =
            self.loads.iter().map(|l| l.depth.load(Ordering::Relaxed) == 0).collect();
        router.place.retain(
            |_, p| !matches!(p, Placement::On { worker, finished: true, .. } if drained[*worker]),
        );
    }

    /// Ends `session` explicitly: its final decode arrives as a
    /// [`StreamEvent::Finalized`]. Unknown ids are ignored (the trip may
    /// already have been evicted). The placement is kept (sticky), so a
    /// later reuse of the id queues FIFO behind this trip's finalize on
    /// the same worker.
    pub fn finish(&self, session: SessionId) -> bool {
        let mut router = self.router.lock().expect("router poisoned");
        self.drain_replies(&mut router);
        let r = &mut *router;
        match r.place.get_mut(&session) {
            Some(Placement::InTransit { pending, .. }) => {
                let log = r.logs.entry(session).or_insert_with(SessionLog::new);
                let idx = log.next_idx;
                log.next_idx += 1;
                log.tail.push((idx, JCmd::Finish));
                pending.push(Pending::Finish(idx));
                true
            }
            Some(Placement::On { worker, finished, .. }) => {
                let w = *worker;
                *finished = true;
                // Journal-first: if the worker dies before (or while)
                // taking this, recovery replays the journaled finish —
                // there is no retry loop here to double-journal it.
                let log = r.logs.entry(session).or_insert_with(SessionLog::new);
                let idx = log.next_idx;
                log.next_idx += 1;
                log.tail.push((idx, JCmd::Finish));
                if !self.send_to(r, w, Cmd::Finish { session, idx }) {
                    // Worker just died: the next drain_replies replays the
                    // journal (including this finish) onto its successor.
                    self.supervise(r);
                }
                true
            }
            None => true,
        }
    }

    /// Forces `session` onto worker `to` (unconditional — used by tests
    /// and operational tooling; the automatic policy only moves
    /// watermark-stable sessions). Returns `false` when the session is
    /// unknown, already on `to`, already in transit, or `to` is out of
    /// range; the migration itself completes asynchronously.
    pub fn migrate(&self, session: SessionId, to: usize) -> bool {
        let mut router = self.router.lock().expect("router poisoned");
        self.drain_replies(&mut router);
        self.start_migration(&mut router, session, to, false)
    }

    /// Runs one rebalance check immediately (the same check `push` runs
    /// periodically): migrate the least-recently-pushed watermark-stable
    /// session off the hottest worker if the load gap warrants it.
    pub fn rebalance(&self) {
        let mut router = self.router.lock().expect("router poisoned");
        self.drain_replies(&mut router);
        self.maybe_rebalance(&mut router);
    }

    /// Snapshot of per-worker load/telemetry and migration counters.
    #[must_use]
    pub fn router_stats(&self) -> RouterStats {
        let mut router = self.router.lock().expect("router poisoned");
        self.drain_replies(&mut router);
        RouterStats {
            workers: self.loads.iter().map(WorkerLoad::snapshot).collect(),
            migrations_requested: router.migrations_requested,
            migrations_completed: router.migrations_completed,
            migrations_refused: router.migrations_refused,
            migrations_missed: router.migrations_missed,
            worker_restarts: router.worker_restarts,
            sessions_recovered: router.sessions_recovered,
            points_replayed: router.points_replayed,
            sessions_lost: router.sessions_lost,
            recovery_time_s: router.recovery_time_s,
        }
    }

    /// Drains every event currently buffered, without blocking. Call
    /// periodically — the event channel is unbounded, so an undrained
    /// engine buffers one update per pushed point. Also advances any
    /// in-flight migration (like every engine entry point), so a consumer
    /// that only polls still makes the router progress.
    pub fn poll_events(&self) -> Vec<StreamEvent> {
        let mut router = self.router.lock().expect("router poisoned");
        self.drain_replies(&mut router);
        drop(router);
        self.events.try_iter().collect()
    }

    /// Blocks up to `timeout` for one event. Periodically advances
    /// in-flight migrations (and worker supervision) while waiting, so a
    /// consumer blocked here cannot deadlock against a session whose
    /// commands are buffered in transit (e.g. a `finish` issued right
    /// after a `migrate`). The two empty outcomes are distinguishable:
    /// [`RecvEventError::Timeout`] means a quiet stream that may yet emit;
    /// [`RecvEventError::Disconnected`] means every worker permanently
    /// failed and the buffer is drained, so no event can ever arrive.
    pub fn recv_event_timeout(&self, timeout: Duration) -> Result<StreamEvent, RecvEventError> {
        let deadline = Instant::now() + timeout;
        loop {
            let all_failed = {
                let mut router = self.router.lock().expect("router poisoned");
                self.drain_replies(&mut router);
                router.failed.iter().all(|&f| f)
            };
            let remaining = deadline.saturating_duration_since(Instant::now());
            let slice = remaining.min(Duration::from_millis(10));
            match self.events.recv_timeout(slice) {
                Ok(e) => return Ok(e),
                // The engine holds a sender clone, so a true disconnect
                // cannot happen while it is alive; map it for completeness.
                Err(RecvTimeoutError::Disconnected) => return Err(RecvEventError::Disconnected),
                Err(RecvTimeoutError::Timeout) => {
                    if all_failed {
                        // Buffer empty (the recv just timed out) and no
                        // producer can ever exist again.
                        return Err(RecvEventError::Disconnected);
                    }
                    if remaining <= slice {
                        return Err(RecvEventError::Timeout);
                    }
                }
            }
        }
    }

    /// Waits (up to `timeout`) until the engine is quiescent: every worker
    /// queue drained and no session in transit between workers. Polling
    /// here also *drives* migration resolution. Returns whether quiescence
    /// was reached. Worker-side telemetry (points decoded, migrations) is
    /// only guaranteed complete for commands pushed before a successful
    /// quiesce — snapshot [`StreamEngine::router_stats`] after it.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let idle = {
                let mut router = self.router.lock().expect("router poisoned");
                self.drain_replies(&mut router);
                router.place.values().all(|p| !matches!(p, Placement::InTransit { .. }))
                    && self.loads.iter().all(|l| l.depth.load(Ordering::Relaxed) == 0)
            };
            if idle {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Checkpoints every live session into a portable
    /// [`SessionSnapshot`] and removes it from the engine — the handoff
    /// half of a rolling restart. A successor engine (same matcher)
    /// resumes them all with [`StreamEngine::restore`] and the continued
    /// decodes are bitwise-identical to never having stopped. In-flight
    /// migrations are resolved first; sessions whose trip already ended
    /// are skipped (there is nothing live to hand off). Worker panics
    /// during the drain are supervised and the detach re-requested, so a
    /// faulty engine still drains every recoverable session within
    /// `timeout`.
    #[must_use]
    pub fn drain_snapshots(&self, timeout: Duration) -> Vec<SessionSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        let mut router = self.router.lock().expect("router poisoned");
        self.drain_replies(&mut router);
        // Resolve in-flight migrations so every session sits On a worker.
        while router.place.values().any(|p| matches!(p, Placement::InTransit { .. }))
            && Instant::now() < deadline
        {
            match router.replies.recv_timeout(Duration::from_millis(20)) {
                Ok(reply) => self.apply_reply(&mut router, reply),
                Err(_) => self.drain_replies(&mut router),
            }
        }
        // Ask every live session off its worker (unconditionally — this is
        // a handoff, not a rebalance, so stability doesn't matter).
        let mut draining: HashSet<SessionId> = HashSet::new();
        let targets: Vec<(SessionId, usize)> = router
            .place
            .iter()
            .filter_map(|(&sid, p)| match p {
                Placement::On { worker, finished: false, .. } => Some((sid, *worker)),
                _ => None,
            })
            .collect();
        for (sid, w) in targets {
            if self.send_to(&router, w, Cmd::Detach { session: sid, stable_only: false }) {
                draining.insert(sid);
            }
        }
        while !draining.is_empty() && Instant::now() < deadline {
            match router.replies.recv_timeout(Duration::from_millis(20)) {
                Ok(Reply::Detached { session, live }) if draining.contains(&session) => {
                    draining.remove(&session);
                    let mut payload = Vec::new();
                    self.matcher.snapshot_session(&live.session, &mut payload);
                    out.push(SessionSnapshot {
                        session,
                        matcher: self.matcher.name().to_string(),
                        seq: live.seq as u64,
                        last_t: live.last_t,
                        payload,
                    });
                    router.place.remove(&session);
                    router.logs.remove(&session);
                }
                Ok(Reply::DetachMiss { session }) if draining.contains(&session) => {
                    // The trip ended (idle eviction) between the scan and
                    // the detach: nothing live to hand off.
                    draining.remove(&session);
                    router.place.remove(&session);
                    router.logs.remove(&session);
                }
                Ok(reply) => self.apply_reply(&mut router, reply),
                Err(_) => {
                    // Supervise: a worker may have died holding sessions we
                    // are draining. Recovery re-homes them (placement goes
                    // back to On), so re-request those detaches.
                    self.drain_replies(&mut router);
                    let again: Vec<(SessionId, usize)> = draining
                        .iter()
                        .filter_map(|&sid| match router.place.get(&sid) {
                            Some(&Placement::On { worker, .. }) => Some((sid, worker)),
                            Some(&Placement::InTransit { .. }) => None,
                            None => None,
                        })
                        .collect();
                    for (sid, w) in again {
                        self.send_to(&router, w, Cmd::Detach { session: sid, stable_only: false });
                    }
                }
            }
        }
        out
    }

    /// Resumes sessions checkpointed by [`StreamEngine::drain_snapshots`]
    /// (or by the supervisor's checkpoint path) on this engine: each
    /// snapshot is validated against this engine's matcher, thawed, placed
    /// like a new session, and seeded into the crash-recovery journal so a
    /// worker panic before the first new checkpoint replays from the
    /// restored state. Returns the number of sessions resumed.
    ///
    /// # Errors
    /// [`SnapshotError::WrongMatcher`] if a snapshot was written by a
    /// different matcher; any payload decode error from the matcher's
    /// `restore_session`; [`SnapshotError::Malformed`] if the session id
    /// is already live on this engine. Sessions restored before the
    /// failing snapshot stay restored.
    pub fn restore(&self, snaps: &[SessionSnapshot]) -> Result<usize, SnapshotError> {
        let mut router = self.router.lock().expect("router poisoned");
        self.drain_replies(&mut router);
        let mut n = 0;
        for snap in snaps {
            snap.expect_matcher(self.matcher.name())?;
            if router.place.contains_key(&snap.session) || router.logs.contains_key(&snap.session) {
                return Err(SnapshotError::Malformed("session id already live on this engine"));
            }
            if router.failed.iter().all(|&f| f) {
                return Err(SnapshotError::Malformed("engine has no live workers left"));
            }
            let session_state = self.matcher.restore_session(&snap.payload)?;
            #[allow(clippy::cast_possible_truncation)]
            let live = Live {
                session: session_state,
                seq: snap.seq as usize,
                last_t: snap.last_t,
                last_seen: Instant::now(),
                last_idx: 0,
                since_ckpt: 0,
            };
            let w = self.place_new(&mut router);
            let mut log = SessionLog::new();
            log.ckpt = Some(Ckpt {
                idx: 0,
                payload: snap.payload.clone(),
                seq: live.seq,
                last_t: live.last_t,
            });
            router.logs.insert(snap.session, log);
            self.send_to(
                &router,
                w,
                Cmd::Attach { session: snap.session, live: Box::new(live), restored: true },
            );
            router.place.insert(
                snap.session,
                Placement::On { worker: w, last_push: Instant::now(), finished: false },
            );
            router.sessions_recovered += 1;
            n += 1;
        }
        Ok(n)
    }

    /// Stops intake, finalizes every live session (reason
    /// [`FinalizeReason::Shutdown`]), joins the workers and returns the
    /// events not yet polled plus the aggregate counters. A worker panic
    /// during the wind-down is supervised like any other (its sessions are
    /// recovered and flushed by the respawned worker), not propagated.
    #[must_use]
    pub fn shutdown(self) -> (Vec<StreamEvent>, StreamStats) {
        // Settle the engine first, under a deadline: resolve in-flight
        // migrations (a session detached but not yet re-attached lives
        // only in the reply channel and would never be finalized), drain
        // the queues of live workers, and supervise any late panic so its
        // sessions are rebuilt before intake closes.
        {
            let mut router = self.router.lock().expect("router poisoned");
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                self.drain_replies(&mut router);
                let busy = router.place.values().any(|p| matches!(p, Placement::InTransit { .. }))
                    || self
                        .loads
                        .iter()
                        .enumerate()
                        .any(|(w, l)| !router.failed[w] && l.depth.load(Ordering::Relaxed) > 0);
                if !busy || Instant::now() >= deadline {
                    break;
                }
                if let Ok(reply) = router.replies.recv_timeout(Duration::from_millis(20)) {
                    self.apply_reply(&mut router, reply);
                }
            }
        }
        let Self { router, events, .. } = self;
        let Router { txs, handles, banked, .. } = router.into_inner().expect("router poisoned");
        // Dropping the senders disconnects every worker, which flushes its
        // remaining sessions and exits.
        drop(txs);
        let mut stats = banked;
        for h in handles.into_iter().flatten() {
            if let Ok((s, _panicked)) = h.join() {
                stats.merge(s);
            }
        }
        // Workers are joined, so every in-flight event is buffered by now.
        let events = events.try_iter().collect();
        (events, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trmma_baselines::{HmmConfig, HmmMatcher, NearestMatcher};
    use trmma_roadnet::RoutePlanner;
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};
    use trmma_traj::types::Trajectory;
    use trmma_traj::MapMatcher;

    fn world() -> (Arc<HmmMatcher>, Vec<Trajectory>) {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        let hmm = Arc::new(HmmMatcher::new(net, planner, HmmConfig::default()));
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 21).into_iter().take(4).map(|s| s.sparse).collect();
        (hmm, batch)
    }

    fn collect_finalized(
        events: &[StreamEvent],
    ) -> HashMap<SessionId, (FinalizeReason, MatchResult)> {
        events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Finalized { session, reason, result, .. } => {
                    Some((*session, (*reason, result.clone())))
                }
                StreamEvent::Update { .. } => None,
            })
            .collect()
    }

    /// Polls `router_stats` (which also drives migration resolution) until
    /// `done` accepts a snapshot or the deadline passes; returns the last
    /// snapshot either way.
    fn wait_stats<M: OnlineMatcher + 'static>(
        engine: &StreamEngine<M>,
        done: impl Fn(&RouterStats) -> bool,
    ) -> RouterStats {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let rs = engine.router_stats();
            if done(&rs) || Instant::now() >= deadline {
                return rs;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn clamped_backoff_never_sleeps_past_the_deadline() {
        let now = Instant::now();
        let full = Duration::from_millis(5);
        // No deadline: the raw backoff, always.
        assert_eq!(clamped_backoff(None, now, full), Some(full));
        // Plenty of time left: still the raw backoff.
        assert_eq!(clamped_backoff(Some(now + Duration::from_secs(1)), now, full), Some(full));
        // Less time left than one backoff step: the sleep shrinks to
        // exactly the remainder — this is the overshoot fix.
        let rem = Duration::from_micros(700);
        assert_eq!(clamped_backoff(Some(now + rem), now, full), Some(rem));
        // At or past the deadline: no sleep, give up immediately.
        assert_eq!(clamped_backoff(Some(now), now, full), None);
        assert_eq!(clamped_backoff(Some(now - Duration::from_millis(1)), now, full), None);
    }

    #[test]
    fn push_timeout_is_not_overshot_by_backoff() {
        // One worker, stalled on every command, a 1-point queue and a short
        // push timeout: the pushes that hit the full queue must give up
        // close to the deadline, not a full 5 ms backoff step (plus
        // scheduler noise) after it. Generous margin: the clamp bounds the
        // final sleep, not OS scheduling.
        FaultPlan::silence_injected_panics();
        let (hmm, batch) = world();
        let plan = FaultPlan {
            stall_per_mille: 1000,
            stall: Duration::from_millis(50),
            ..FaultPlan::default()
        };
        let opts = StreamOptions::with_threads(1)
            .queue_capacity(1)
            .push_timeout_s(0.02)
            .idle_timeout_s(0.0);
        let engine = StreamEngine::with_faults(hmm, opts, plan);
        let points = &batch[0].points;
        let mut timed_out = 0;
        for &p in points.iter().take(6) {
            let start = Instant::now();
            let accepted = engine.push(0, p);
            let waited = start.elapsed();
            if !accepted {
                timed_out += 1;
                assert!(
                    waited < Duration::from_millis(120),
                    "push overshot its 20 ms deadline: waited {waited:?}"
                );
            }
        }
        assert!(timed_out > 0, "stalled worker never produced a timeout");
        let _ = engine.shutdown();
    }

    #[test]
    fn interleaved_sessions_finalize_to_offline_results() {
        let (hmm, batch) = world();
        let engine =
            StreamEngine::new(hmm.clone(), StreamOptions::with_threads(3).idle_timeout_s(0.0));
        // Round-robin interleave all sessions' points.
        let longest = batch.iter().map(Trajectory::len).max().unwrap();
        for i in 0..longest {
            for (sid, t) in batch.iter().enumerate() {
                if let Some(&p) = t.points.get(i) {
                    assert!(engine.push(sid as SessionId, p));
                }
            }
        }
        for sid in 0..batch.len() {
            engine.finish(sid as SessionId);
        }
        // Workers publish the counter after each command: read it once
        // the queues have drained, before shutdown tears them down.
        assert!(engine.quiesce(Duration::from_secs(60)));
        assert!(
            engine.router_stats().allocs_avoided() > 0,
            "workers must report arena reuse via RouterStats"
        );
        let (events, stats) = engine.shutdown();
        let finals = collect_finalized(&events);
        assert_eq!(finals.len(), batch.len());
        for (sid, t) in batch.iter().enumerate() {
            let (reason, result) = &finals[&(sid as SessionId)];
            assert_eq!(*reason, FinalizeReason::Explicit);
            assert_eq!(*result, hmm.match_trajectory(t), "session {sid} diverged from offline");
        }
        let total_points: u64 = batch.iter().map(|t| t.len() as u64).sum();
        assert_eq!(stats.points, total_points);
        assert_eq!(stats.sessions_opened, batch.len() as u64);
        assert_eq!(stats.finalized(), batch.len() as u64);
        assert_eq!(stats.late_dropped, 0);
        // One update per accepted point, each with a provisional match.
        let updates =
            events.iter().filter(|e| matches!(e, StreamEvent::Update { .. })).count() as u64;
        assert_eq!(updates, total_points);
    }

    #[test]
    fn unfinished_sessions_flush_on_shutdown() {
        let (hmm, batch) = world();
        let engine = StreamEngine::new(hmm.clone(), StreamOptions::with_threads(2));
        for (sid, t) in batch.iter().enumerate() {
            for &p in &t.points {
                engine.push(sid as SessionId, p);
            }
        }
        let (events, stats) = engine.shutdown();
        let finals = collect_finalized(&events);
        assert_eq!(finals.len(), batch.len());
        for (sid, t) in batch.iter().enumerate() {
            let (reason, result) = &finals[&(sid as SessionId)];
            assert_eq!(*reason, FinalizeReason::Shutdown);
            assert_eq!(*result, hmm.match_trajectory(t));
        }
        assert_eq!(stats.finalized_shutdown, batch.len() as u64);
    }

    #[test]
    fn idle_sessions_are_finalized_on_timeout() {
        let (hmm, batch) = world();
        let engine =
            StreamEngine::new(hmm.clone(), StreamOptions::with_threads(1).idle_timeout_s(0.05));
        let t = &batch[0];
        for &p in &t.points {
            engine.push(7, p);
        }
        // Wait (generously) for the idle sweep to fire.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut finalized = None;
        while finalized.is_none() && Instant::now() < deadline {
            for e in engine.poll_events() {
                if let StreamEvent::Finalized { session, reason, result, .. } = e {
                    finalized = Some((session, reason, result));
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let (session, reason, result) = finalized.expect("idle session never evicted");
        assert_eq!(session, 7);
        assert_eq!(reason, FinalizeReason::IdleTimeout);
        assert_eq!(result, hmm.match_trajectory(t));
        // The eviction is visible live in the router telemetry, not only
        // in the shutdown-time stats.
        let rs = engine.router_stats();
        assert_eq!(rs.idle_finalized(), 1);
        assert_eq!(rs.late_dropped(), 0);
        let (_, stats) = engine.shutdown();
        assert_eq!(stats.finalized_idle, 1);
        assert_eq!(stats.finalized(), 1);
    }

    #[test]
    fn late_points_are_dropped_not_decoded() {
        let (hmm, batch) = world();
        let engine =
            StreamEngine::new(hmm.clone(), StreamOptions::with_threads(2).idle_timeout_s(0.0));
        let t = &batch[0];
        for &p in &t.points {
            engine.push(1, p);
        }
        // Replay the first half again: all strictly older than last_t.
        let stale = t.len() / 2;
        for &p in &t.points[..stale] {
            engine.push(1, p);
        }
        engine.finish(1);
        assert!(engine.quiesce(Duration::from_secs(10)));
        // Drops are counted per worker and surface live in router stats.
        let rs = engine.router_stats();
        assert_eq!(rs.late_dropped(), stale as u64);
        assert_eq!(rs.idle_finalized(), 0);
        let (events, stats) = engine.shutdown();
        assert_eq!(stats.late_dropped, stale as u64);
        assert_eq!(stats.points, t.len() as u64);
        let finals = collect_finalized(&events);
        assert_eq!(finals[&1].1, hmm.match_trajectory(t), "late points must not perturb decode");
    }

    #[test]
    fn finish_of_unknown_session_is_a_noop() {
        let (hmm, _) = world();
        let engine = StreamEngine::new(hmm, StreamOptions::with_threads(2));
        assert!(engine.finish(99));
        let (events, stats) = engine.shutdown();
        assert!(events.is_empty());
        assert_eq!(stats, StreamStats::default());
    }

    #[test]
    fn options_builder_and_defaults() {
        let d = StreamOptions::default();
        assert_eq!(d.threads, 0);
        assert!(d.effective_threads() >= 1);
        assert_eq!(d.rebalance_threshold, 16);
        let o = StreamOptions::with_threads(3)
            .idle_timeout_s(0.0)
            .queue_capacity(0)
            .rebalance_threshold(0);
        assert_eq!(o.effective_threads(), 3);
        assert_eq!(o.queue_capacity, 1, "capacity clamps to 1");
        assert!(o.idle_timeout().is_none(), "0 disables eviction");
        assert_eq!(o.rebalance_threshold, 0);
        assert!(StreamOptions::default().idle_timeout().is_some());
    }

    /// Session ids that all collide modulo the worker count: the adversary
    /// workload of the load-aware router.
    fn skewed_ids(n: usize, threads: usize) -> Vec<SessionId> {
        (0..n).map(|i| (i * threads) as SessionId).collect()
    }

    #[test]
    fn power_of_two_spreads_skewed_ids() {
        let (hmm, batch) = world();
        let threads = 3;
        let engine = StreamEngine::new(
            hmm.clone(),
            StreamOptions::with_threads(threads).idle_timeout_s(0.0),
        );
        let ids = skewed_ids(batch.len(), threads);
        // One session at a time: earlier sessions are live (load > 0) when
        // later ones are placed, so p2c must route around them.
        for (t, &sid) in batch.iter().zip(&ids) {
            for &p in &t.points {
                engine.push(sid, p);
            }
        }
        let rs = engine.router_stats();
        let used = rs.workers.iter().filter(|w| w.sessions_placed > 0).count();
        assert!(
            used >= 2,
            "p2c left skewed ids on one worker: {:?}",
            rs.workers.iter().map(|w| w.sessions_placed).collect::<Vec<_>>()
        );
        let placed: u64 = rs.workers.iter().map(|w| w.sessions_placed).sum();
        assert_eq!(placed, batch.len() as u64);
        for &sid in &ids {
            engine.finish(sid);
        }
        let (events, stats) = engine.shutdown();
        assert_eq!(stats.sessions_opened, batch.len() as u64);
        let finals = collect_finalized(&events);
        for (t, &sid) in batch.iter().zip(&ids) {
            assert_eq!(finals[&sid].1, hmm.match_trajectory(t));
        }
    }

    #[test]
    fn forced_migration_preserves_offline_identity() {
        let (hmm, batch) = world();
        let engine =
            StreamEngine::new(hmm.clone(), StreamOptions::with_threads(3).idle_timeout_s(0.0));
        let t = &batch[0];
        // Bounce the session between workers on every push.
        for (i, &p) in t.points.iter().enumerate() {
            assert!(engine.push(5, p));
            engine.migrate(5, i % 3);
        }
        engine.finish(5);
        let rs = wait_stats(&engine, |rs| {
            rs.migrations_requested
                == rs.migrations_completed + rs.migrations_refused + rs.migrations_missed
        });
        assert!(rs.migrations_completed >= 1, "no migration ever completed: {rs:?}");
        assert_eq!(rs.migrations_refused, 0, "forced migration must not consult stability");
        let (events, stats) = engine.shutdown();
        assert_eq!(stats.sessions_opened, 1, "migration must not split the session");
        assert_eq!(stats.points, t.len() as u64);
        let finals = collect_finalized(&events);
        assert_eq!(finals.len(), 1);
        let (reason, result) = &finals[&5];
        assert_eq!(*reason, FinalizeReason::Explicit);
        assert_eq!(*result, hmm.match_trajectory(t), "migrated decode diverged from offline");
        let updates = events.iter().filter(|e| matches!(e, StreamEvent::Update { .. })).count();
        assert_eq!(updates, t.len(), "every point decoded exactly once across migrations");
    }

    #[test]
    fn rebalance_migrates_stable_sessions_off_hot_worker() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        // Nearest stabilizes instantly, so its sessions are always
        // migration-eligible.
        let nearest = Arc::new(NearestMatcher::new(net, planner));
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 22).into_iter().take(4).map(|s| s.sparse).collect();
        let engine = StreamEngine::new(
            nearest.clone(),
            StreamOptions::with_threads(3).idle_timeout_s(0.0).rebalance_threshold(1),
        );
        for (sid, t) in batch.iter().enumerate() {
            for &p in &t.points {
                engine.push(sid as SessionId, p);
            }
        }
        // Pile every session onto worker 0, then let the policy unpile.
        let mut forced = 0;
        for sid in 0..batch.len() {
            if engine.migrate(sid as SessionId, 0) {
                forced += 1;
            }
        }
        let rs = wait_stats(&engine, |rs| {
            rs.workers[0].live_sessions == batch.len() && rs.migrations_completed == forced
        });
        assert_eq!(rs.workers[0].live_sessions, batch.len(), "forced pile-up failed: {rs:?}");
        engine.rebalance();
        // `migrations_completed` bumps when the attach is *sent*; wait for
        // the target worker to have *processed* it (`migrated_in`).
        let rs = wait_stats(&engine, |rs| {
            rs.workers[1..].iter().map(|w| w.migrated_in).sum::<u64>() >= 1
        });
        assert!(rs.migrations_completed > forced, "rebalance never moved a stable session: {rs:?}");
        let off_zero: u64 = rs.workers[1..].iter().map(|w| w.migrated_in).sum();
        assert!(off_zero >= 1, "policy migration must land off the hot worker: {rs:?}");
        for sid in 0..batch.len() {
            engine.finish(sid as SessionId);
        }
        let (events, _) = engine.shutdown();
        let finals = collect_finalized(&events);
        for (sid, t) in batch.iter().enumerate() {
            assert_eq!(finals[&(sid as SessionId)].1, nearest.match_trajectory(t));
        }
    }

    #[test]
    fn rebalance_refuses_unstable_sessions() {
        use crate::{Mma, MmaConfig};
        let ds = build_dataset(&DatasetConfig::tiny());
        let net = Arc::new(ds.net.clone());
        let planner = Arc::new(RoutePlanner::untrained(&net));
        // MMA's watermark stays 0 until finalize: never migration-eligible.
        let mma = Arc::new(Mma::new(net, planner, None, MmaConfig::small()));
        let batch: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 23).into_iter().take(2).map(|s| s.sparse).collect();
        let engine = StreamEngine::new(
            mma.clone(),
            StreamOptions::with_threads(2).idle_timeout_s(0.0).rebalance_threshold(1),
        );
        for (sid, t) in batch.iter().enumerate() {
            for &p in &t.points {
                engine.push(sid as SessionId, p);
            }
        }
        let mut forced = 0;
        for sid in 0..batch.len() {
            if engine.migrate(sid as SessionId, 0) {
                forced += 1;
            }
        }
        let rs = wait_stats(&engine, |rs| {
            rs.workers[0].live_sessions == batch.len() && rs.migrations_completed == forced
        });
        assert_eq!(rs.workers[0].live_sessions, batch.len(), "forced pile-up failed: {rs:?}");
        engine.rebalance();
        let rs = wait_stats(&engine, |rs| rs.migrations_refused >= 1);
        assert!(rs.migrations_refused >= 1, "unstable session was not refused: {rs:?}");
        for sid in 0..batch.len() {
            engine.finish(sid as SessionId);
        }
        let (events, _) = engine.shutdown();
        let finals = collect_finalized(&events);
        for (sid, t) in batch.iter().enumerate() {
            assert_eq!(finals[&(sid as SessionId)].1, mma.match_trajectory(t));
        }
    }

    /// A consumer that only waits on `recv_event_timeout` (no further
    /// pushes or stats calls) must still see the `Finalized` of a finish
    /// that was buffered behind an in-flight migration — the event wait
    /// itself drives migration resolution.
    #[test]
    fn finish_after_migrate_finalizes_without_further_engine_calls() {
        let (hmm, batch) = world();
        let engine =
            StreamEngine::new(hmm.clone(), StreamOptions::with_threads(2).idle_timeout_s(0.0));
        let t = &batch[0];
        for &p in &t.points {
            assert!(engine.push(3, p));
        }
        // The session lives on exactly one of the two workers, so one of
        // these is a real move that puts it in transit.
        assert!(engine.migrate(3, 0) || engine.migrate(3, 1));
        engine.finish(3); // likely buffered while in transit
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut finalized = None;
        while finalized.is_none() && Instant::now() < deadline {
            if let Ok(StreamEvent::Finalized { session, result, .. }) =
                engine.recv_event_timeout(Duration::from_millis(50))
            {
                finalized = Some((session, result));
            }
        }
        let (session, result) = finalized.expect("finalize stuck behind in-flight migration");
        assert_eq!(session, 3);
        assert_eq!(result, hmm.match_trajectory(t));
        let _ = engine.shutdown();
    }

    /// Sticky placement: a session id reused after `finish` must queue
    /// FIFO behind the previous trip on the same worker, so the first
    /// trip's `Finalized` event precedes every event of the second trip
    /// and both decode to their own offline references.
    #[test]
    fn reused_session_id_is_serialized_behind_previous_trip() {
        let (hmm, batch) = world();
        let engine =
            StreamEngine::new(hmm.clone(), StreamOptions::with_threads(3).idle_timeout_s(0.0));
        let (t1, t2) = (&batch[0], &batch[1]);
        for &p in &t1.points {
            assert!(engine.push(9, p));
        }
        engine.finish(9);
        // Reuse the id immediately — the Finish above may still be queued.
        for &p in &t2.points {
            assert!(engine.push(9, p));
        }
        engine.finish(9);
        let (events, stats) = engine.shutdown();
        assert_eq!(stats.sessions_opened, 2);
        assert_eq!(stats.finalized_explicit, 2);
        let finals: Vec<(usize, &MatchResult)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                StreamEvent::Finalized { result, .. } => Some((i, result)),
                StreamEvent::Update { .. } => None,
            })
            .collect();
        assert_eq!(finals.len(), 2);
        assert_eq!(*finals[0].1, hmm.match_trajectory(t1));
        assert_eq!(*finals[1].1, hmm.match_trajectory(t2));
        // Every trip-2 event comes after trip 1 finalized.
        let trip2_updates: Vec<usize> = events
            .iter()
            .enumerate()
            .skip(finals[0].0 + 1)
            .filter_map(|(i, e)| matches!(e, StreamEvent::Update { .. }).then_some(i))
            .collect();
        assert_eq!(
            trip2_updates.len(),
            t2.len(),
            "all of trip 2's updates must follow trip 1's Finalized"
        );
    }

    #[test]
    fn router_stats_counters_are_consistent() {
        let (hmm, batch) = world();
        let engine =
            StreamEngine::new(hmm.clone(), StreamOptions::with_threads(2).idle_timeout_s(0.0));
        for (sid, t) in batch.iter().enumerate() {
            for &p in &t.points {
                engine.push(sid as SessionId, p);
            }
            engine.migrate(sid as SessionId, sid % 2);
        }
        let rs = wait_stats(&engine, |rs| {
            rs.migrations_requested
                == rs.migrations_completed + rs.migrations_refused + rs.migrations_missed
        });
        let migrated_in: u64 = rs.workers.iter().map(|w| w.migrated_in).sum();
        let migrated_out: u64 = rs.workers.iter().map(|w| w.migrated_out).sum();
        assert_eq!(migrated_out, rs.migrations_completed);
        assert!(migrated_in <= migrated_out, "attach cannot precede detach");
        let placed: u64 = rs.workers.iter().map(|w| w.sessions_placed).sum();
        assert_eq!(placed, batch.len() as u64);
        for sid in 0..batch.len() {
            engine.finish(sid as SessionId);
        }
        let (_, stats) = engine.shutdown();
        assert_eq!(stats.sessions_opened, batch.len() as u64);
        let total: u64 = batch.iter().map(|t| t.len() as u64).sum();
        assert_eq!(stats.points, total);
    }

    #[test]
    fn recv_event_timeout_distinguishes_quiet_from_dead() {
        let (hmm, _) = world();
        let engine = StreamEngine::new(hmm, StreamOptions::with_threads(2));
        // Healthy engine, nothing pushed: a quiet stream, not a dead one.
        assert_eq!(
            engine.recv_event_timeout(Duration::from_millis(30)),
            Err(RecvEventError::Timeout)
        );
        let _ = engine.shutdown();
    }

    /// The acceptance bar of the supervision feature: injected worker
    /// panics mid-stream lose nothing — every session is rebuilt from its
    /// checkpoint + journal and finalizes bitwise-identical to a
    /// fault-free (offline) decode.
    #[test]
    fn injected_panics_recover_every_session_bitwise() {
        FaultPlan::silence_injected_panics();
        let (hmm, batch) = world();
        let plan = FaultPlan::panics(0xBAD5EED, 250, 3);
        let engine = StreamEngine::with_faults(
            hmm.clone(),
            StreamOptions::with_threads(2).idle_timeout_s(0.0).checkpoint_every(4),
            plan,
        );
        let longest = batch.iter().map(Trajectory::len).max().unwrap();
        for i in 0..longest {
            for (sid, t) in batch.iter().enumerate() {
                if let Some(&p) = t.points.get(i) {
                    assert!(engine.push(sid as SessionId, p));
                }
            }
        }
        for sid in 0..batch.len() {
            assert!(engine.finish(sid as SessionId));
        }
        assert!(engine.quiesce(Duration::from_secs(30)));
        let rs = engine.router_stats();
        assert!(rs.worker_restarts >= 1, "the fault plan must actually fire: {rs:?}");
        assert_eq!(rs.sessions_lost, 0, "supervision must lose nothing: {rs:?}");
        assert!(rs.sessions_recovered >= 1, "dead workers held live sessions: {rs:?}");
        let (events, stats) = engine.shutdown();
        // Replayed points decode (and emit) again, so `points` may exceed
        // the input count — but never undershoot it.
        let total: u64 = batch.iter().map(|t| t.len() as u64).sum();
        assert!(stats.points >= total, "points lost: {} < {total}", stats.points);
        let finals = collect_finalized(&events);
        assert_eq!(finals.len(), batch.len(), "a session vanished: {rs:?}");
        for (sid, t) in batch.iter().enumerate() {
            let (reason, result) = &finals[&(sid as SessionId)];
            assert_eq!(*reason, FinalizeReason::Explicit);
            assert_eq!(
                *result,
                hmm.match_trajectory(t),
                "session {sid} diverged after crash recovery"
            );
        }
    }

    /// Past the restart budget the engine degrades loudly, not silently:
    /// pushes fail, the lost session is counted, and the event channel
    /// reports `Disconnected` instead of an indistinguishable timeout.
    #[test]
    fn exhausted_restart_budget_reports_dead_engine() {
        FaultPlan::silence_injected_panics();
        let (hmm, batch) = world();
        let plan = FaultPlan::panics(7, 1000, u32::MAX); // every command panics
        let engine = StreamEngine::with_faults(
            hmm,
            StreamOptions::with_threads(1).idle_timeout_s(0.0).max_worker_restarts(0),
            plan,
        );
        let t = &batch[0];
        // Keep pushing until the supervisor notices the corpse and marks
        // the only worker slot permanently failed.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut accepted = true;
        while accepted && Instant::now() < deadline {
            accepted = engine.push(5, t.points[0]);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!accepted, "push must fail once every worker is gone");
        let rs = engine.router_stats();
        assert_eq!(rs.worker_restarts, 0, "budget of zero allows no respawn");
        assert_eq!(rs.sessions_lost, 1, "the lost session must be counted: {rs:?}");
        assert_eq!(
            engine.recv_event_timeout(Duration::from_millis(50)),
            Err(RecvEventError::Disconnected)
        );
        let (_, stats) = engine.shutdown();
        assert_eq!(stats.points, 0, "every command panicked before decoding");
    }

    /// Regression for the Disconnected handling gap: a consumer that only
    /// calls `recv_event_timeout` (no pushes, no stats — the shape of an
    /// ingest front-end's event pump) must, after every worker has
    /// permanently failed, still observe every `Finalized` the engine
    /// produced before dying and then get `Disconnected` — never a hang,
    /// and never a finish that is neither delivered nor counted lost.
    #[test]
    fn events_only_consumer_observes_every_finish_after_total_worker_failure() {
        FaultPlan::silence_injected_panics();
        let (hmm, batch) = world();
        let plan = FaultPlan::panics(0x5EED_F00D, 120, 1);
        let engine = StreamEngine::with_faults(
            hmm,
            StreamOptions::with_threads(1)
                .idle_timeout_s(0.0)
                .max_worker_restarts(0)
                .push_timeout_s(0.2),
            plan,
        );
        // Finish each trip right after its points: early trips finalize
        // before the injected death, later ones die with the worker.
        let mut engaged = 0u64; // sessions the engine accepted points for
        for (sid, t) in batch.iter().enumerate() {
            let mut accepted = 0usize;
            for &p in &t.points {
                if !engine.push(sid as SessionId, p) {
                    break;
                }
                accepted += 1;
            }
            if accepted > 0 {
                engaged += 1;
                engine.finish(sid as SessionId);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut finalized = 0u64;
        loop {
            assert!(
                Instant::now() < deadline,
                "events-only consumer hung after total worker failure"
            );
            match engine.recv_event_timeout(Duration::from_millis(50)) {
                Ok(StreamEvent::Finalized { .. }) => finalized += 1,
                Ok(StreamEvent::Update { .. }) | Err(RecvEventError::Timeout) => {}
                Err(RecvEventError::Disconnected) => break,
            }
        }
        let rs = engine.router_stats();
        assert!(rs.sessions_lost >= 1, "the injected death must cost something: {rs:?}");
        assert_eq!(
            finalized + rs.sessions_lost,
            engaged,
            "every finish must be delivered or loudly counted lost: {rs:?}"
        );
        assert!(finalized >= 1, "trips finished before the crash must still be delivered");
        let _ = engine.shutdown();
    }

    /// Rolling-restart handoff: drain a live engine to snapshots, restore
    /// them on a successor, continue the streams — the finals are
    /// bitwise-identical to never having stopped.
    #[test]
    fn drain_snapshots_then_restore_resumes_identically() {
        let (hmm, batch) = world();
        let opts = || StreamOptions::with_threads(2).idle_timeout_s(0.0);
        let first = StreamEngine::new(hmm.clone(), opts());
        for (sid, t) in batch.iter().enumerate() {
            for &p in &t.points[..t.len() / 2] {
                assert!(first.push(sid as SessionId, p));
            }
        }
        // One session mid-migration at drain time: the drain must resolve
        // it rather than skip or split it.
        first.migrate(0, 1);
        let mut snaps = first.drain_snapshots(Duration::from_secs(10));
        assert_eq!(snaps.len(), batch.len(), "every live session drains");
        assert!(
            first.drain_snapshots(Duration::from_secs(1)).is_empty(),
            "drained sessions left the engine"
        );
        let (events, _) = first.shutdown();
        assert!(
            !events.iter().any(|e| matches!(e, StreamEvent::Finalized { .. })),
            "drained sessions must not also finalize"
        );
        // The envelope survives a byte round-trip (what a process restart
        // would persist and reload).
        snaps = snaps
            .iter()
            .map(|s| {
                SessionSnapshot::decode(&s.encode().expect("envelope encodes"))
                    .expect("envelope round-trips")
            })
            .collect();
        let second = StreamEngine::new(hmm.clone(), opts());
        assert_eq!(second.restore(&snaps), Ok(batch.len()));
        for (sid, t) in batch.iter().enumerate() {
            for &p in &t.points[t.len() / 2..] {
                assert!(second.push(sid as SessionId, p));
            }
            assert!(second.finish(sid as SessionId));
        }
        let (events, stats) = second.shutdown();
        let finals = collect_finalized(&events);
        assert_eq!(finals.len(), batch.len());
        for (sid, t) in batch.iter().enumerate() {
            let (reason, result) = &finals[&(sid as SessionId)];
            assert_eq!(*reason, FinalizeReason::Explicit);
            assert_eq!(
                *result,
                hmm.match_trajectory(t),
                "session {sid} diverged across the engine handoff"
            );
        }
        // Only the post-restore points were decoded here; the updates'
        // seq numbers continued from the snapshot (no overlap, no gap).
        let second_half: u64 = batch.iter().map(|t| (t.len() - t.len() / 2) as u64).sum();
        assert_eq!(stats.points, second_half);
    }

    /// Restore guards: a snapshot from one matcher cannot thaw into
    /// another, and a live session id cannot be overwritten.
    #[test]
    fn restore_rejects_wrong_matcher_and_live_ids() {
        let (hmm, batch) = world();
        let engine = StreamEngine::new(hmm.clone(), StreamOptions::with_threads(1));
        for &p in &batch[0].points[..2] {
            assert!(engine.push(4, p));
        }
        let snaps = engine.drain_snapshots(Duration::from_secs(10));
        assert_eq!(snaps.len(), 1);
        let wrong = SessionSnapshot { matcher: "Nearest".to_string(), ..snaps[0].clone() };
        assert!(matches!(engine.restore(&[wrong]), Err(SnapshotError::WrongMatcher { .. })));
        assert_eq!(engine.restore(&snaps), Ok(1));
        assert!(engine.restore(&snaps).is_err(), "session 4 is live again");
        assert!(engine.finish(4));
        let (events, _) = engine.shutdown();
        let finals = collect_finalized(&events);
        assert_eq!(
            finals[&4].1,
            hmm.match_trajectory(&Trajectory { points: batch[0].points[..2].to_vec() })
        );
    }
}
