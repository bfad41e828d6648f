//! The traced run: per-layer numbers for one workload.
//!
//! End-to-end metrics are measured with tracing off (`batch`, `socket`).
//! Here the same inputs go through the pipeline rebuilt from public pieces
//! (`decomposed`), single-threaded, with a span around every call into a
//! layer — next to one untraced pass of the real entry point, which gives
//! the sequential baseline, the bitwise reference, and (traced ÷ untraced
//! wall) the tracing overhead.

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trmma_baselines::{FmmMatcher, HmmMatcher};
use trmma_core::{
    par_match_pooled, BatchOptions, BatchRecovery, SessionSnapshot, StreamEngine, StreamEvent,
    StreamOptions,
};
use trmma_roadnet::shortest::{DistCache, SsspPool, Weight};
use trmma_roadnet::{NodeId, TransitionProvider};
use trmma_traj::api::CandidateFinder;
use trmma_traj::metrics::recovery_metrics;
use trmma_traj::{GpsPoint, MatchResult, OnlineMatcher, ScratchMatcher, Trajectory};

use crate::decomposed::{self, HmmParts, HmmState, MmaState};
use crate::fixture::{Eval, Fixture, EPSILON_S};
use crate::host;
use crate::layers::{ratio, Layers};
use crate::setup::{setup, Pipeline, Served, Socket, Workload};
use crate::socket::{self, Pacing, Plan, Sessions};
use crate::stats;
use crate::trace::{self, Span, TraceFile, Tracer};

/// Recorded oracle pairs replayed through the cold Dijkstra probe.
const COLD_PROBE_PAIRS: usize = 10_000;
/// Points of the window-1 round-trip probe.
const RTT_PROBE_POINTS: usize = 400;
/// The closed-loop engine replay polls for events this often, in pushes.
const POLL_EVERY: usize = 512;
/// Trajectories Eq. 22's MAE is computed on.
const MAE_SAMPLE: usize = 200;

/// What a traced run hands back.
pub struct TracedRun {
    pub layers: Layers,
    pub trace: TraceFile,
    pub attempted: u64,
    /// Decomposed outputs that differ from the real entry point's.
    pub failed: u64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("fits u64")
}

/// Mean self time per call of the spans named `name`, nanoseconds.
fn per_call_ns(spans: &[Span], name: &str) -> f64 {
    let (total, calls) = trace::total_of(spans, name);
    ratio(total as f64, calls as f64)
}

/// Mean nanoseconds of `probe` over `pairs`.
fn probe_ns(pairs: &[(u32, u32)], mut probe: impl FnMut(NodeId, NodeId) -> Option<f64>) -> f64 {
    let t0 = Instant::now();
    for &(a, b) in pairs {
        std::hint::black_box(probe(NodeId(a), NodeId(b)));
    }
    ratio(ns(t0.elapsed()) as f64, pairs.len() as f64)
}

/// Runs `one` over `batch` on this thread under a fresh recorder, stamping
/// each trajectory's spans with its operation id.
fn traced_pass<O>(
    batch: &[Trajectory],
    mut one: impl FnMut(&mut Tracer, &Trajectory) -> O,
) -> (Vec<O>, Duration, Vec<Span>) {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let out = batch
        .iter()
        .enumerate()
        .map(|(i, t)| {
            tr.set_op(u32::try_from(i + 1).expect("fits u32"));
            one(&mut tr, t)
        })
        .collect();
    (out, origin.elapsed(), tr.finish(0))
}

/// The three passes every batch workload's traced run makes.
struct BatchPasses<O> {
    /// The real entry point on one thread: baseline and bitwise reference.
    seq_out: Vec<O>,
    seq_wall_s: f64,
    /// The real entry point on `batch_threads()`.
    par_wall_s: f64,
    traced_out: Vec<O>,
    traced_wall: Duration,
    spans: Vec<Span>,
}

impl<O: PartialEq> BatchPasses<O> {
    /// Books the metrics every batch workload shares and closes the run.
    fn book(self, workload: Workload, points: usize, mut layers: Layers) -> TracedRun {
        let seq_pps = points as f64 / self.seq_wall_s;
        layers.set("core.batch.seq_points_per_s", seq_pps);
        layers.set(
            "core.batch.parallel_efficiency",
            (points as f64 / self.par_wall_s) / (host::batch_threads() as f64 * seq_pps),
        );
        layers.set("trace.overhead_ratio", self.traced_wall.as_secs_f64() / self.seq_wall_s);
        layers.set("roadnet.planner.stitch_ns", per_call_ns(&self.spans, "roadnet.planner.stitch"));
        let (knn_ns, knn_calls) = trace::total_of(&self.spans, "rtree.knn");
        layers.set("rtree.knn_ns", ratio(knn_ns as f64, knn_calls as f64));
        layers.set("rtree.knn_calls", knn_calls as f64);
        let failed =
            self.seq_out.iter().zip(&self.traced_out).filter(|(a, b)| a != b).count() as u64;
        TracedRun {
            layers,
            trace: TraceFile {
                workload: workload.name().to_string(),
                pass_wall_ns: ns(self.traced_wall),
                threads: 1,
                spans: self.spans,
            },
            attempted: self.seq_out.len() as u64,
            failed,
        }
    }
}

/// An HMM-family matcher seen from outside: the real entry point plus the
/// oracle the decomposed step must share with it.
trait HmmFamily: ScratchMatcher + Sync {
    fn oracle(&self) -> &TransitionProvider;
}

impl HmmFamily for HmmMatcher {
    fn oracle(&self) -> &TransitionProvider {
        self.provider()
    }
}

impl HmmFamily for FmmMatcher {
    fn oracle(&self) -> &TransitionProvider {
        self.provider()
    }
}

/// Sequential, traced and parallel passes of an HMM-family workload.
/// `matcher_for` hands each pass its matcher (a fresh one per pass when
/// cold). Returns the passes and the oracle pairs the traced one recorded.
fn hmm_family<M: HmmFamily, B: Borrow<M>>(
    fx: &Fixture,
    served: &Served,
    batch: &[Trajectory],
    layers: &mut Layers,
    mut matcher_for: impl FnMut() -> B,
) -> (BatchPasses<MatchResult>, Vec<(u32, u32)>) {
    let cfg = fx.profile.hmm_config();
    let points: usize = batch.iter().map(Trajectory::len).sum();

    let m = matcher_for();
    let (seq_out, seq) = par_match_pooled(m.borrow(), batch, BatchOptions::with_threads(1));
    drop(m);

    let m = matcher_for();
    let oracle = m.borrow().oracle();
    let finder = match oracle.sharded() {
        Some(sh) => CandidateFinder::sharded(Arc::clone(sh), cfg.k_candidates),
        None => CandidateFinder::new(&served.net, cfg.k_candidates),
    };
    let parts = HmmParts {
        net: &served.net,
        planner: &served.planner,
        finder: &finder,
        provider: oracle,
        cfg: &cfg,
    };
    let before = oracle.stats();
    let mut st = HmmState::default();
    let (traced_out, traced_wall, spans) =
        traced_pass(batch, |tr, t| decomposed::hmm_match(&parts, &mut st, tr, t));
    let after = oracle.stats();

    let (oracle_ns, oracle_calls) = trace::total_of(&spans, "roadnet.transition.route_dist");
    layers.set("roadnet.transition.route_dist_ns", ratio(oracle_ns as f64, oracle_calls as f64));
    layers.set("roadnet.transition.calls_per_point", oracle_calls as f64 / points as f64);
    layers.set("roadnet.transition.busy_share", oracle_ns as f64 / ns(traced_wall) as f64);
    layers.set("nn.kernels.emission_ns", per_call_ns(&spans, "nn.kernels.emission"));
    layers
        .set("baselines.decoder.advance_self_ns", per_call_ns(&spans, "baselines.decoder.advance"));
    layers.set("baselines.decoder.decode_ns", per_call_ns(&spans, "baselines.decoder.decode"));

    // Exact counts: one thread, one pass, one oracle.
    let (hits, misses) = ((after.hits - before.hits) as f64, (after.misses - before.misses) as f64);
    if oracle.table().is_some() || oracle.sharded().is_some() {
        layers.set("roadnet.transition.table_hit_ratio", ratio(hits, hits + misses));
    } else {
        layers.set("roadnet.shortest.cache_hit_ratio", ratio(hits, hits + misses));
        layers.set(
            "roadnet.shortest.warm_hit_ratio",
            ratio((after.warm_hits - before.warm_hits) as f64, misses),
        );
        layers.set(
            "roadnet.shortest.nodes_expanded_per_miss",
            ratio((after.nodes_expanded - before.nodes_expanded) as f64, misses),
        );
        layers.set(
            "roadnet.shortest.heap_pushes_per_miss",
            ratio((after.heap_pushes - before.heap_pushes) as f64, misses),
        );
        layers.set("roadnet.shortest.evictions", (after.evictions - before.evictions) as f64);
        layers.set("roadnet.shortest.cache_entries", oracle.cache().len() as f64);
    }
    drop(m);

    let m = matcher_for();
    let (_, par) =
        par_match_pooled(m.borrow(), batch, BatchOptions::with_threads(host::batch_threads()));
    let passes = BatchPasses {
        seq_out,
        seq_wall_s: seq.wall_s,
        par_wall_s: par.wall_s,
        traced_out,
        traced_wall,
        spans,
    };
    (passes, st.pairs)
}

fn run_hmm(
    workload: Workload,
    fx: &Fixture,
    eval: &Eval,
    served: &Served,
    mut layers: Layers,
) -> TracedRun {
    let n = if workload == Workload::MatchHmmSharded {
        fx.profile.sharded_trace_n
    } else {
        fx.profile.trace_n.min(eval.batch.len())
    };
    let batch = &eval.batch[..n];
    let points = eval.points(n);
    let delta = fx.profile.delta_m;
    let passes = match &served.pipeline {
        Pipeline::Fmm(fmm) => {
            let (passes, pairs) =
                hmm_family::<FmmMatcher, _>(fx, served, batch, &mut layers, || &**fmm);
            let table = fmm.provider().table().expect("FMM serves a table");
            layers.set(
                "roadnet.transition.table_probe_ns",
                probe_ns(&pairs, |a, b| table.query(a, b)),
            );
            layers.set("roadnet.transition.table_records", table.len() as f64);
            layers.set("roadnet.transition.table_bytes", table.resident_bytes() as f64);
            layers.set("roadnet.transition.table_build_s", fx.times.table_s);
            passes
        }
        Pipeline::Hmm(hmm) if workload == Workload::MatchHmmSharded => {
            let (passes, pairs) =
                hmm_family::<HmmMatcher, _>(fx, served, batch, &mut layers, || hmm);
            let sharded = hmm.provider().sharded().expect("sharded matcher");
            layers.set(
                "roadnet.shard.node_dist_ns",
                probe_ns(&pairs, |a, b| sharded.node_dist(a, b)),
            );
            layers.set("roadnet.shard.knn_ns", per_call_ns(&passes.spans, "rtree.knn"));
            layers.set("roadnet.shard.resident_bytes", sharded.resident_bytes() as f64);
            layers.set("roadnet.shard.build_s", fx.times.shards_s);
            // The same inputs on the same threads through the whole-graph
            // table: the ratio ROADMAP's exit criterion (>= 0.5) is about.
            let Pipeline::Fmm(fmm) = setup(Workload::MatchFmmTable, fx).pipeline else {
                unreachable!("match_fmm_table stands up an FMM matcher")
            };
            let threads = BatchOptions::with_threads(host::batch_threads());
            let (_, table_pass) = par_match_pooled(&*fmm, batch, threads);
            layers.set("roadnet.shard.vs_table", table_pass.wall_s / passes.par_wall_s);
            passes
        }
        Pipeline::Hmm(_) => {
            let fresh = || served.cold_hmm(&fx.profile);
            let (passes, pairs) =
                hmm_family::<HmmMatcher, _>(fx, served, batch, &mut layers, fresh);
            let mut pool = SsspPool::new();
            let pairs = &pairs[..pairs.len().min(COLD_PROBE_PAIRS)];
            layers.set(
                "roadnet.shortest.cold_node_dist_ns",
                probe_ns(pairs, |a, b| pool.node_dist(&served.net, a, b, Weight::Length, delta)),
            );
            passes
        }
        _ => unreachable!("{} is not an HMM-family workload", workload.name()),
    };
    passes.book(workload, points, layers)
}

/// `core.mma.*`, shared by the matching and the recovery workload.
fn book_mma(layers: &mut Layers, spans: &[Span], points: usize, st: &MmaState) {
    let (fwd_ns, _) = trace::total_of(spans, "core.mma.match_points");
    layers.set("core.mma.forward_self_ns", fwd_ns as f64 / points as f64);
    layers.set("core.mma.allocs_avoided", st.allocs_avoided() as f64);
}

fn run_mma(
    workload: Workload,
    fx: &Fixture,
    eval: &Eval,
    served: &Served,
    mut layers: Layers,
) -> TracedRun {
    let n = fx.profile.trace_n.min(eval.batch.len());
    let batch = &eval.batch[..n];
    let points = eval.points(n);
    let one = BatchOptions::with_threads(1);
    let many = BatchOptions::with_threads(host::batch_threads());
    let (net, planner) = (&*served.net, &*served.planner);
    let mut st = MmaState::default();
    match &served.pipeline {
        Pipeline::Mma(mma) => {
            let (seq_out, seq) = par_match_pooled(&**mma, batch, one);
            let (traced_out, traced_wall, spans) = traced_pass(batch, |tr, t| {
                decomposed::mma_match(mma, net, planner, &mut st, tr, t)
            });
            let (_, par) = par_match_pooled(&**mma, batch, many);
            book_mma(&mut layers, &spans, points, &st);
            BatchPasses {
                seq_out,
                seq_wall_s: seq.wall_s,
                par_wall_s: par.wall_s,
                traced_out,
                traced_wall,
                spans,
            }
            .book(workload, points, layers)
        }
        Pipeline::Recovery(mma, trmma) => {
            let engine = |opts| BatchRecovery::new(mma.clone(), trmma.clone(), opts);
            let (seq_out, seq) = engine(one).recover_batch_timed(batch, EPSILON_S);
            let (traced_out, traced_wall, spans) = traced_pass(batch, |tr, t| {
                decomposed::recover(mma, trmma, net, planner, &mut st, tr, t, EPSILON_S)
            });
            let (_, par) = engine(many).recover_batch_timed(batch, EPSILON_S);
            book_mma(&mut layers, &spans, points, &st);
            let (rec_ns, _) = trace::total_of(&spans, "core.trmma.recover");
            let out_points: usize = traced_out.iter().map(trmma_traj::MatchedTrajectory::len).sum();
            layers.set("core.trmma.recover_ns_per_out_point", rec_ns as f64 / out_points as f64);
            layers.set("core.trmma.out_points", out_points as f64);
            layers.set("core.trmma.busy_share", rec_ns as f64 / ns(traced_wall) as f64);
            // Eq. 22 over road-network distance, exact given the seed.
            let cache = DistCache::new();
            let k = MAE_SAMPLE.min(n);
            let mae: f64 = traced_out[..k]
                .iter()
                .zip(&eval.samples)
                .map(|(rec, s)| recovery_metrics(net, rec, &s.dense_truth, Some(&cache)).mae)
                .sum();
            layers.set("core.trmma.mae_m", mae / k as f64);
            BatchPasses {
                seq_out,
                seq_wall_s: seq.wall_s,
                par_wall_s: par.wall_s,
                traced_out,
                traced_wall,
                spans,
            }
            .book(workload, points, layers)
        }
        _ => unreachable!("{} is not an MMA-family workload", workload.name()),
    }
}

/// `q`-quantile of `xs` in milliseconds (seconds in), 0 for no samples.
fn quantile_ms(xs: &[f64], q: f64) -> f64 {
    if xs.len() < 2 * stats::MIN_BEYOND {
        return 0.0;
    }
    stats::tail(xs, q).value * 1e3
}

/// What the engine replay has seen come back so far.
#[derive(Default)]
struct Replayed {
    /// Push return → update seen, seconds.
    totals: Vec<f64>,
    /// The same minus the worker's decode time: time spent queued.
    waits: Vec<f64>,
    procs: Vec<f64>,
    /// Σ over updates of points not yet behind the stable-prefix watermark.
    lag_sum: f64,
    finalized: usize,
}

impl Replayed {
    /// `pushed[s][k]`: when session `s`'s `k`-th push returned.
    fn absorb(&mut self, ev: StreamEvent, pushed: &[Vec<Instant>]) {
        match ev {
            StreamEvent::Update { session, seq, update, proc_s } => {
                let session = usize::try_from(session).expect("session index fits usize");
                let total = pushed[session][seq].elapsed().as_secs_f64();
                self.totals.push(total);
                self.waits.push((total - proc_s).max(0.0));
                self.procs.push(proc_s);
                self.lag_sum += (seq + 1).saturating_sub(update.stable_prefix) as f64;
            }
            StreamEvent::Finalized { .. } => self.finalized += 1,
        }
    }
}

/// Feeds `plan` to an in-process `StreamEngine` — no socket, no pump —
/// under the socket workload's own pacing (the same schedule, or the same
/// window of un-updated pushes), and books `core.stream.*`. Returns the
/// push-return → update p50 in seconds, the in-process counterpart of the
/// socket's op latency.
fn engine_replay<M: OnlineMatcher + 'static>(
    matcher: &Arc<M>,
    plan: &Plan,
    pacing: Pacing,
    layers: &mut Layers,
) -> f64 {
    let opts = StreamOptions::with_threads(host::batch_threads()).idle_timeout_s(0.0);
    let engine = StreamEngine::new(matcher.clone(), opts);
    let n = plan.events.len();
    let mut pushed: Vec<Vec<Instant>> = vec![Vec::new(); plan.sessions()];
    let mut seen = Replayed::default();
    let started = Instant::now();
    let mut push_ns = 0u64;
    for (i, &(s, p)) in plan.events.iter().enumerate() {
        let poll_now = match pacing {
            Pacing::Open { rate } => {
                let due = Duration::from_secs_f64(Plan::due_s(i, rate));
                if let Some(wait) = due.checked_sub(started.elapsed()) {
                    std::thread::sleep(wait);
                }
                true
            }
            Pacing::Closed { window } => {
                while i - seen.totals.len() >= window {
                    for ev in engine.poll_events() {
                        seen.absorb(ev, &pushed);
                    }
                    std::thread::yield_now();
                }
                (i + 1) % POLL_EVERY == 0
            }
        };
        let t0 = Instant::now();
        let ok = engine.push(u64::from(s), p);
        push_ns += ns(t0.elapsed());
        assert!(ok, "the in-process engine refused a push");
        pushed[s as usize].push(Instant::now());
        if poll_now {
            for ev in engine.poll_events() {
                seen.absorb(ev, &pushed);
            }
        }
    }
    let recv = |seen: &mut Replayed| match engine.recv_event_timeout(Duration::from_secs(10)) {
        Ok(ev) => seen.absorb(ev, &pushed),
        Err(e) => panic!("the in-process engine stopped emitting events: {e}"),
    };
    while seen.totals.len() < n {
        recv(&mut seen);
    }
    // Every point is decoded; finalizing the sessions is not streaming.
    let wall_s = started.elapsed().as_secs_f64();
    for s in 0..plan.sessions() {
        engine.finish(s as u64);
    }
    while seen.finalized < plan.sessions() {
        recv(&mut seen);
    }
    let router = engine.router_stats();
    let _ = engine.shutdown();

    layers.set("core.stream.engine_points_per_s", n as f64 / wall_s);
    layers.set("core.stream.push_ns", push_ns as f64 / n as f64);
    layers.set("core.stream.queue_wait_p50_ms", quantile_ms(&seen.waits, 0.5));
    layers.set("core.stream.queue_wait_p99_ms", quantile_ms(&seen.waits, 0.99));
    layers.set("core.stream.decode_p50_ms", quantile_ms(&seen.procs, 0.5));
    layers.set(
        "core.stream.queue_depth_hwm",
        router.workers.iter().map(|w| w.queue_depth_hwm).max().unwrap_or(0) as f64,
    );
    layers.set("core.stream.migrations", router.migrated() as f64);
    layers.set("core.stream.late_dropped", router.late_dropped() as f64);
    layers.set("core.stream.stable_lag_points", ratio(seen.lag_sum, seen.totals.len() as f64));
    quantile_ms(&seen.totals, 0.5) / 1e3
}

/// Leaves every session of `plan` live in a fresh engine, times
/// `drain_snapshots` over all of them, then times the snapshot codec on
/// what came out. Restart cost, not steady state.
fn drain_probe<M: OnlineMatcher + 'static>(matcher: &Arc<M>, plan: &Plan, layers: &mut Layers) {
    let opts = StreamOptions::with_threads(host::batch_threads()).idle_timeout_s(0.0);
    let engine = StreamEngine::new(matcher.clone(), opts);
    for &(s, p) in &plan.events {
        assert!(engine.push(u64::from(s), p), "the in-process engine refused a push");
    }
    assert!(engine.quiesce(Duration::from_secs(30)), "the engine did not quiesce");
    let t0 = Instant::now();
    let snaps = engine.drain_snapshots(Duration::from_secs(30));
    layers.set("core.stream.drain_ms", t0.elapsed().as_secs_f64() * 1e3);
    let _ = engine.shutdown();
    assert_eq!(snaps.len(), plan.sessions(), "every live session drains");

    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> =
        snaps.iter().map(|s| s.encode().expect("snapshot encodes")).collect();
    layers.set("core.snapshot.encode_ns", ns(t0.elapsed()) as f64 / snaps.len() as f64);
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    layers.set("core.snapshot.bytes_per_session", bytes as f64 / snaps.len() as f64);
    let t0 = Instant::now();
    for e in &encoded {
        std::hint::black_box(SessionSnapshot::decode(e).expect("snapshot decodes"));
    }
    layers.set("core.snapshot.decode_ns", ns(t0.elapsed()) as f64 / snaps.len() as f64);
}

/// Median ack round trip at window 1 on one session through a
/// `NearestMatcher` server: decode is ~free, so this is the wire, the
/// admission path and the pump.
fn rtt_floor_ms(fx: &Fixture, eval: &Eval) -> f64 {
    let Pipeline::SocketNearest(sock) = setup(Workload::SocketSaturated, fx).pipeline else {
        unreachable!("socket_saturated stands up a Nearest server")
    };
    // One long session: the corpus's points in order, re-timed to increase.
    let points: Vec<GpsPoint> = eval
        .batch
        .iter()
        .flat_map(|t| t.points.iter())
        .take(RTT_PROBE_POINTS)
        .enumerate()
        .map(|(i, p)| GpsPoint { pos: p.pos, t: i as f64 })
        .collect();
    let plan = Plan::new(&[Trajectory { points }], 0);
    let out = socket::run_round(
        &sock.conn,
        &plan,
        Sessions::fresh(0),
        Pacing::Closed { window: 1 },
        false,
    );
    let rtts: Vec<f64> = out.windows.iter().flat_map(|w| w.op_s.iter().copied()).collect();
    stats::median(&rtts) * 1e3
}

fn run_socket<M: OnlineMatcher + ScratchMatcher + Sync + 'static>(
    workload: Workload,
    fx: &Fixture,
    eval: &Eval,
    sock: &Socket<M>,
    pacing: Pacing,
    mut layers: Layers,
) -> TracedRun {
    host::assert_threads_fit(workload.name(), 2);
    let n = fx.profile.trace_n.min(eval.batch.len());
    let batch = &eval.batch[..n];
    let plan = Plan::new(batch, eval.seed);

    // A fresh server's first pass pays first-touch costs neither of the
    // two compared passes should.
    let _warm_up = socket::run_round(&sock.conn, &plan, Sessions::fresh(0), pacing, false);
    let untraced = socket::run_round(&sock.conn, &plan, Sessions::fresh(n as u64), pacing, false);
    let before = sock.server.stats();
    let traced = socket::run_round(&sock.conn, &plan, Sessions::fresh(2 * n as u64), pacing, true);
    let after = sock.server.stats();
    let matcher = &sock.matcher;

    let acked = |o: &socket::Round| -> Vec<f64> {
        o.windows.iter().flat_map(|w| w.op_s.iter().copied()).collect()
    };
    let points = acked(&traced).len().max(1) as f64;
    layers.set("trace.overhead_ratio", traced.wall_s / untraced.wall_s);
    layers.set("core.serve.frame_encode_ns", per_call_ns(&traced.spans, "core.serve.frame_encode"));
    layers.set("core.serve.frame_decode_ns", per_call_ns(&traced.spans, "core.serve.frame_decode"));
    layers.set("core.serve.bytes_in_per_point", (after.bytes_in - before.bytes_in) as f64 / points);
    layers.set(
        "core.serve.bytes_out_per_point",
        (after.bytes_out - before.bytes_out) as f64 / points,
    );
    layers.set("core.serve.busy_replies", (untraced.busy + traced.busy) as f64);
    layers.set("core.serve.refused", (untraced.refused + traced.refused) as f64);
    layers.set("loadgen.max_lag_ms", traced.max_lag_s.max(untraced.max_lag_s) * 1e3);
    layers.set("loadgen.late_ratio", traced.late_ratio.max(untraced.late_ratio));
    layers.set("core.serve.rtt_floor_ms", rtt_floor_ms(fx, eval));

    let inproc_p50_s = engine_replay(matcher, &plan, pacing, &mut layers);
    let socket_p50_s = stats::median(&acked(&untraced));
    layers.set("core.serve.wire_share", 1.0 - inproc_p50_s / socket_p50_s);
    drain_probe(matcher, &plan, &mut layers);

    // The socket's finals against the offline decode of the same points.
    let (reference, _) =
        par_match_pooled(&**matcher, batch, BatchOptions::with_threads(host::batch_threads()));
    let wrong = |finals: &[Option<MatchResult>]| {
        finals.iter().zip(&reference).filter(|(f, r)| f.as_ref() != Some(*r)).count() as u64
    };
    let failed = wrong(&untraced.finals) + wrong(&traced.finals) + untraced.lost() + traced.lost();
    TracedRun {
        layers,
        trace: TraceFile {
            workload: workload.name().to_string(),
            pass_wall_ns: (traced.wall_s * 1e9) as u64,
            threads: 2,
            spans: traced.spans,
        },
        attempted: (untraced.sent + traced.sent) as u64,
        failed,
    }
}

/// The traced run of `workload`.
pub fn run(workload: Workload, fx: &Fixture, eval: &Eval) -> TracedRun {
    let served = setup(workload, fx);
    let mut layers = Layers::new();
    layers.set("core.artifact.decode_ms", served.times.decode_ms);
    layers.set("core.artifact.graph_ms", served.times.graph_ms);
    layers.set("core.artifact.dist_table_ms", served.times.dist_table_ms);
    layers.set("core.artifact.weights_ms", served.times.weights_ms);
    layers.set("core.artifact.bytes", served.times.bytes as f64);
    layers.set("fixture.build_s", fx.times.total_s);
    let t = Instant::now();
    std::hint::black_box(served.net.build_rtree());
    layers.set("rtree.build_ms", t.elapsed().as_secs_f64() * 1e3);

    match &served.pipeline {
        Pipeline::Mma(_) | Pipeline::Recovery(..) => run_mma(workload, fx, eval, &served, layers),
        Pipeline::Hmm(_) | Pipeline::Fmm(_) => run_hmm(workload, fx, eval, &served, layers),
        Pipeline::SocketFmm(sock) => {
            let pacing = Pacing::Open { rate: fx.profile.paced_rate };
            run_socket(workload, fx, eval, sock, pacing, layers)
        }
        Pipeline::SocketNearest(sock) => {
            let pacing = Pacing::Closed { window: socket::SATURATED_WINDOW };
            run_socket(workload, fx, eval, sock, pacing, layers)
        }
    }
}
