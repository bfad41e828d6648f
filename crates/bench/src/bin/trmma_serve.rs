//! `trmma-serve` — standalone network ingest front-end.
//!
//! Binds a `trmma_core::serve::Server` (the length-prefixed "TRMP" TCP
//! protocol, DESIGN.md §12) in front of a `StreamEngine` over a chosen
//! matcher and serves until killed, printing a `ServeStats` summary line
//! periodically. Rolling restart: a successor process sends a `Snapshot`
//! frame here, restores the drained sessions into its own instance, and
//! this process can then be stopped with zero dropped sessions (see the
//! README quickstart and `examples/ingest_client.rs`).
//!
//! ```text
//! trmma-serve [--addr HOST:PORT] [--method hmm|fmm|lhmm|mma] [--threads N]
//!             [--smoke] [--max-seconds S]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7717`; port 0 picks a
//!   free port and prints it).
//! * `--method` — the `OnlineMatcher` decoding every session (default
//!   `hmm`; `mma` trains the paper's model first, a few seconds at smoke
//!   scale).
//! * `--threads` — `StreamEngine` worker threads (default 2).
//! * `--smoke` — tiny synthetic dataset and a 2-second lifetime, the CI
//!   liveness check.
//! * `--max-seconds S` — exit after `S` seconds (default: run forever).
//!
//! Scale knobs `TRMMA_SCALE` / `TRMMA_PROFILE` / `TRMMA_DATASETS` select
//! the road network exactly as in the table/figure binaries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use trmma_baselines::{FmmMatcher, HmmConfig, HmmMatcher, LhmmMatcher};
use trmma_bench::harness::{trained_mma, Bundle, ExpConfig};
use trmma_core::{ServeConfig, Server, StreamOptions};
use trmma_traj::dataset::DatasetConfig;
use trmma_traj::online::OnlineMatcher;

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Serves until the deadline (if any), printing one stats line per tick.
fn serve<M: OnlineMatcher + 'static>(matcher: Arc<M>, cfg: ServeConfig, deadline: Option<f64>) {
    let server = Server::start(matcher, cfg).expect("bind ingest address");
    println!("trmma-serve listening on {}", server.local_addr());
    let started = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(500));
        let done = deadline.is_some_and(|s| started.elapsed().as_secs_f64() >= s);
        if done || started.elapsed().as_millis() % 5000 < 500 {
            let s = server.stats();
            println!(
                "sessions open/final/restored {}/{}/{} | points {} | frames in/out {}/{} | \
                 busy {} refused {} | bytes in/out {}/{}",
                s.sessions_opened,
                s.sessions_finalized,
                s.sessions_restored,
                s.points_accepted,
                s.frames_in,
                s.frames_out,
                s.busy,
                s.refused,
                s.bytes_in,
                s.bytes_out,
            );
        }
        if done {
            break;
        }
    }
    server.stop();
    println!("trmma-serve: clean shutdown");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let addr = flag_value("--addr").unwrap_or_else(|| "127.0.0.1:7717".to_string());
    let method = flag_value("--method").unwrap_or_else(|| "hmm".to_string());
    let threads: usize = flag_value("--threads").map_or(2, |v| v.parse().expect("--threads N"));
    let deadline: Option<f64> = flag_value("--max-seconds")
        .map(|v| v.parse().expect("--max-seconds S"))
        .or(if smoke { Some(2.0) } else { None });

    let cfg = ExpConfig::from_env();
    let dcfg = if smoke {
        DatasetConfig::tiny()
    } else {
        cfg.dataset_configs().into_iter().next().expect("at least one dataset selected")
    };
    let bundle = Bundle::prepare(&dcfg, 0.1, cfg.mma_config().d0);
    println!("dataset {} | method {method} | {threads} engine threads", bundle.ds.name);

    let serve_cfg = ServeConfig::default()
        .addr(&addr)
        .stream(StreamOptions::with_threads(threads).idle_timeout_s(0.0));
    let hmm_cfg = HmmConfig::default();
    match method.as_str() {
        "hmm" => serve(
            Arc::new(HmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), hmm_cfg)),
            serve_cfg,
            deadline,
        ),
        "fmm" => serve(
            Arc::new(FmmMatcher::new(bundle.net.clone(), bundle.planner.clone(), hmm_cfg)),
            serve_cfg,
            deadline,
        ),
        "lhmm" => serve(
            Arc::new(LhmmMatcher::fit(
                bundle.net.clone(),
                bundle.planner.clone(),
                hmm_cfg,
                &bundle.train,
            )),
            serve_cfg,
            deadline,
        ),
        "mma" => {
            let epochs = if smoke { 1 } else { cfg.epochs.min(3) };
            let (mma, _) = trained_mma(&bundle, cfg.mma_config(), epochs);
            serve(Arc::new(mma), serve_cfg, deadline);
        }
        m => panic!("unknown --method {m} (expected hmm|fmm|lhmm|mma)"),
    }
}
