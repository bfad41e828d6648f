//! Refusal checks every [`TrajectoryRecovery`] must pass. Shared by the
//! recovery tests of this crate and of `trmma-core` (which includes this
//! file by path).

use trmma_traj::api::TrajectoryRecovery;
use trmma_traj::types::{GpsPoint, Trajectory};

/// Runs `f`, which must panic, and returns its formatted message.
fn panic_message(f: impl FnOnce(), why: &str) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err(why);
    err.downcast_ref::<String>().expect("formatted panic message").clone()
}

/// Every ε that [`trmma_traj::epsilon_ticks`] must refuse, handed to
/// `method.recover`: each has to panic naming `epsilon_s` and the value
/// instead of sizing an output from it.
pub fn assert_rejects_unusable_epsilon(method: &dyn TrajectoryRecovery, traj: &Trajectory) {
    for (eps, shown) in
        [(0.0, "got 0"), (-15.0, "got -15"), (f64::NAN, "got NaN"), (f64::INFINITY, "got inf")]
    {
        let msg = panic_message(
            || drop(method.recover(traj, eps)),
            "an unusable ε must not be recovered with",
        );
        assert!(msg.contains("epsilon_s") && msg.contains(shown), "ε = {eps}: {msg}");
    }
}

/// `traj` (at least three points) with one coordinate made non-finite —
/// the last point's t, a middle point's x, the first point's y — handed
/// to `method.recover`: each has to panic naming the point's index
/// ([`trmma_traj::api::assert_finite_point`]) instead of recovering from
/// it.
pub fn assert_rejects_non_finite_points(
    method: &dyn TrajectoryRecovery,
    traj: &Trajectory,
    epsilon_s: f64,
) {
    let n = traj.len();
    assert!(n >= 3, "need a first, a middle and a last point, got {n}");
    let mut last_t = traj.clone();
    last_t.points[n - 1].t = f64::NAN;
    let mut mid_x = traj.clone();
    mid_x.points[n / 2].pos.x = f64::NAN;
    let mut first_y = traj.clone();
    first_y.points[0].pos.y = f64::INFINITY;
    for (i, bad) in [(n - 1, last_t), (n / 2, mid_x), (0, first_y)] {
        let msg = panic_message(
            || drop(method.recover(&bad, epsilon_s)),
            "a non-finite point must not be recovered from",
        );
        assert!(msg.contains(&format!("GPS point {i} must have finite")), "point {i}: {msg}");
    }
}

/// `traj`'s first two points `p0, p1` as `[p0, p1 with t = p0.t]` and as
/// `[p1, p0 with t = p1.t − 30]`, handed to `method.recover`: each has to
/// panic naming point 1 ([`trmma_traj::api::assert_recoverable`]) instead
/// of emitting output whose timestamps do not increase.
pub fn assert_rejects_non_increasing_times(
    method: &dyn TrajectoryRecovery,
    traj: &Trajectory,
    epsilon_s: f64,
) {
    let (p0, p1) = (traj.points[0], traj.points[1]);
    let repeated = Trajectory { points: vec![p0, GpsPoint { t: p0.t, ..p1 }] };
    let backward = Trajectory { points: vec![p1, GpsPoint { t: p1.t - 30.0, ..p0 }] };
    for bad in [repeated, backward] {
        let msg = panic_message(
            || drop(method.recover(&bad, epsilon_s)),
            "timestamps that do not increase must not be recovered from",
        );
        assert!(msg.contains("GPS point 1 must have t above point 0's"), "{msg}");
    }
}
