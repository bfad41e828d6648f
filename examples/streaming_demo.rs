//! Streaming map matching: live GPS points from several concurrent devices
//! flow through the `StreamEngine`, which answers each point with a
//! provisional match plus a stabilized-prefix watermark and emits the final
//! route when a trip ends — identical to the offline decode of the same
//! points. The engine's load-aware router places each device on the
//! least-loaded worker, where it stays, and reports per-worker telemetry.
//!
//! A second act replays the same trips with seeded worker panics injected
//! mid-stream: the supervisor respawns the dead workers and rebuilds every
//! session from its checkpoint + journal, so nothing is lost and the final
//! routes are still bitwise-identical to the offline decode.
//!
//! ```sh
//! cargo run --release --example streaming_demo
//! ```

use std::sync::Arc;

use trmma::baselines::{HmmConfig, HmmMatcher};
use trmma::core::{FaultPlan, SessionId, StreamEngine, StreamEvent, StreamOptions};
use trmma::traj::dataset::{build_dataset, DatasetConfig, Split};
use trmma::traj::types::Trajectory;
use trmma::traj::MapMatcher;

fn main() {
    let ds = build_dataset(&DatasetConfig::tiny());
    let net = Arc::new(ds.net.clone());
    let planner = Arc::new(trmma::roadnet::RoutePlanner::untrained(&net));
    let hmm = Arc::new(HmmMatcher::new(net, planner, HmmConfig::default()));

    // Three "devices", each mid-trip.
    let trips: Vec<Trajectory> =
        ds.samples(Split::Test, 0.2, 5).into_iter().take(3).map(|s| s.sparse).collect();

    let engine =
        StreamEngine::new(hmm.clone(), StreamOptions::with_threads(2).idle_timeout_s(10.0));

    // Interleave the devices round-robin, as live traffic would arrive.
    let longest = trips.iter().map(Trajectory::len).max().unwrap_or(0);
    for i in 0..longest {
        for (device, trip) in trips.iter().enumerate() {
            if let Some(&p) = trip.points.get(i) {
                engine.push(device as SessionId, p);
            }
        }
    }
    for device in 0..trips.len() {
        engine.finish(device as SessionId);
    }
    // Let the workers drain so the worker-side telemetry (points decoded,
    // sessions placed) is complete before we snapshot it.
    engine.quiesce(std::time::Duration::from_secs(10));
    let router = engine.router_stats();
    let (events, stats) = engine.shutdown();

    println!("per-point updates (device 0):");
    println!(
        "{:>5} {:>12} {:>8} {:>14} {:>12}",
        "seq", "prov. seg", "ratio", "stable prefix", "decode µs"
    );
    for e in &events {
        if let StreamEvent::Update { session: 0, seq, update, proc_s } = e {
            let m = update.provisional.expect("candidate exists");
            println!(
                "{:>5} {:>12} {:>8.3} {:>11}/{:<2} {:>12.1}",
                seq,
                m.seg.0,
                m.ratio,
                update.stable_prefix,
                seq + 1,
                proc_s * 1e6
            );
        }
    }

    println!("\nfinalized trips:");
    for e in &events {
        if let StreamEvent::Finalized { session, reason, points, result } = e {
            let offline = hmm.match_trajectory(&trips[*session as usize]);
            println!(
                "device {session}: {points} points, route of {} segments ({reason:?}); identical to offline decode: {}",
                result.route.len(),
                *result == offline
            );
        }
    }
    println!(
        "\nstats: {} points over {} sessions ({} finalized explicitly, {} idle-evicted, {} at shutdown)",
        stats.points,
        stats.sessions_opened,
        stats.finalized_explicit,
        stats.finalized_idle,
        stats.finalized_shutdown
    );

    println!("\nrouter: per-worker telemetry");
    for (w, t) in router.workers.iter().enumerate() {
        println!(
            "worker {w}: {} sessions placed, {} points decoded, queue-depth high-water {}, {} idle-evicted",
            t.sessions_placed, t.points, t.queue_depth_hwm, t.idle_finalized
        );
    }

    // Act two: the same trips under injected worker panics. The supervisor
    // respawns each dead worker and rebuilds its sessions from the latest
    // checkpoint plus the journaled point tail — zero sessions lost,
    // finals bitwise-identical to the fault-free decode above.
    println!("\n== chaos replay: seeded worker panics mid-stream ==");
    FaultPlan::silence_injected_panics();
    let chaotic = StreamEngine::with_faults(
        hmm.clone(),
        StreamOptions::with_threads(2).idle_timeout_s(10.0).checkpoint_every(4),
        FaultPlan::panics(0xC4A05, 200, 3),
    );
    for i in 0..longest {
        for (device, trip) in trips.iter().enumerate() {
            if let Some(&p) = trip.points.get(i) {
                chaotic.push(device as SessionId, p);
            }
        }
    }
    for device in 0..trips.len() {
        chaotic.finish(device as SessionId);
    }
    chaotic.quiesce(std::time::Duration::from_secs(10));
    let recovery = chaotic.router_stats();
    let (events, _) = chaotic.shutdown();
    for e in &events {
        if let StreamEvent::Finalized { session, result, .. } = e {
            let offline = hmm.match_trajectory(&trips[*session as usize]);
            println!(
                "device {session}: recovered route identical to offline decode: {}",
                *result == offline
            );
        }
    }
    println!(
        "recovery: {} worker restarts, {} sessions recovered, {} journaled points replayed, {} sessions lost ({:.3} ms mean recovery per crash)",
        recovery.worker_restarts,
        recovery.sessions_recovered,
        recovery.points_replayed,
        recovery.sessions_lost,
        if recovery.worker_restarts > 0 {
            recovery.recovery_time_s * 1e3 / recovery.worker_restarts as f64
        } else {
            0.0
        }
    );
}
