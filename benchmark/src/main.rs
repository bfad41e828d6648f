//! The repository's benchmark. One workload per process:
//!
//! ```text
//! trmma-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`.
//! `run` drives that once per workload (each in a fresh process), `repeat`
//! runs the set twice and compares medians against the bounds in
//! `BENCHMARK.json`, `report` turns trace files into per-layer tables.
//! See `benchmark/README.md`.

mod batch;
mod decomposed;
mod fixture;
mod host;
mod json;
mod layers;
mod measure;
mod setup;
mod socket;
mod stats;
mod trace;
mod traced;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use trmma_baselines::NearestMatcher;

use fixture::{Eval, Fixture, Profile};
use json::Value;
use measure::{Measured, Metric};
use setup::{setup, Pipeline, Served, Workload};
use socket::Pacing;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `--seconds` when a subcommand is given none (what `BENCHMARK.json` sets).
const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "usage:
  trmma-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  trmma-benchmark run    [--seed N] [--seconds S] [--workload NAME] [--trace] [--smoke]
  trmma-benchmark repeat [--seed N] [--seconds S] [--smoke]
  trmma-benchmark report [--workload NAME]";

/// Parsed command-line options, shared by every subcommand.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o =
        Opts { workload: None, seed: 1, seconds: DEFAULT_SECONDS, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                    o.trace = false;
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

impl Opts {
    /// The workloads a subcommand covers: the named one, or all seven.
    fn selected(&self) -> Vec<Workload> {
        self.workload.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w])
    }
}

fn profile(smoke: bool) -> Profile {
    if smoke {
        fixture::SMOKE
    } else {
        fixture::FULL
    }
}

/// Stands the workload up [`SETUPS`] times, one instance alive at a time;
/// returns every set-up's seconds and the last instance.
fn timed_setups(workload: Workload, fx: &Fixture) -> (Vec<f64>, Served) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        drop(served.take());
        let t = Instant::now();
        served = Some(setup(workload, fx));
        secs.push(t.elapsed().as_secs_f64());
    }
    (secs, served.expect("SETUPS > 0"))
}

fn untraced(
    workload: Workload,
    fx: &Fixture,
    eval: &Eval,
    seconds: f64,
) -> (Vec<Metric>, Measured) {
    let (setup_s, served) = timed_setups(workload, fx);
    let m = match &served.pipeline {
        Pipeline::SocketFmm(sock) => {
            host::assert_threads_fit(workload.name(), 2);
            // The offline decode runs on a separately stood-up matcher.
            let Pipeline::Fmm(reference) = setup(Workload::MatchFmmTable, fx).pipeline else {
                unreachable!("match_fmm_table stands up an FMM matcher")
            };
            let pacing = Pacing::Open { rate: fx.profile.paced_rate };
            socket::run(fx, eval, &sock.conn, &*reference, pacing, seconds)
        }
        Pipeline::SocketNearest(sock) => {
            host::assert_threads_fit(workload.name(), 2);
            let reference = NearestMatcher::new(served.net.clone(), served.planner.clone());
            let pacing = Pacing::Closed { window: socket::SATURATED_WINDOW };
            socket::run(fx, eval, &sock.conn, &reference, pacing, seconds)
        }
        _ => batch::run(workload, fx, eval, &served, seconds),
    };
    (measure::end_to_end(&setup_s, &m), m)
}

/// Driver mode: one workload in this process.
fn run_one(o: &Opts) -> ExitCode {
    let workload = o.workload.expect("driver mode names a workload");
    let fx = fixture::ensure(&profile(o.smoke));
    let eval = fixture::eval_corpus(&fx.net, &fx.profile, o.seed);
    println!(
        "# {} seed {} profile {} host_threads {} batch_threads {}",
        workload.name(),
        o.seed,
        fx.profile.name,
        host::host_threads(),
        host::batch_threads()
    );
    let (metrics, attempted, failed) = if o.trace {
        let run = traced::run(workload, &fx, &eval);
        let path = host::out_dir().join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, run.trace.to_json().encode()).expect("write the trace file");
        println!("# trace written to {}", path.display());
        if run.trace.threads == 1 {
            println!(
                "# unattributed share of the traced pass: {:.4}",
                run.trace.unattributed_share()
            );
        }
        (run.layers.metrics(), run.attempted, run.failed)
    } else {
        let (metrics, m) = untraced(workload, &fx, &eval, o.seconds);
        println!("# passes {}", m.passes.len());
        (metrics, m.attempted, m.failed)
    };
    for m in &metrics {
        println!("{}", m.render());
    }
    println!("# operations attempted {attempted} failed {failed}");
    println!("{}", measure::result_line(failed == 0, attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}

/// One finished workload process, as `run` and `repeat` see it.
struct ChildResult {
    workload: Workload,
    result: Value,
}

impl ChildResult {
    fn clean(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
            && self.result.get("failed").and_then(Value::as_i64) == Some(0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }
}

/// Runs each selected workload in a fresh process of this executable and
/// parses the result line each prints last.
fn run_children(o: &Opts) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for workload in o.selected() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if o.smoke {
            cmd.arg("--smoke");
        }
        let started = Instant::now();
        let out = cmd.output().map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in &lines {
            println!("{l}");
        }
        if !out.status.success() {
            return Err(format!("{} exited with {}", workload.name(), out.status));
        }
        let result = json::parse(last)
            .map_err(|e| format!("{}: last line is not a result: {e}", workload.name()))?;
        println!("# {} took {:.1} s\n", workload.name(), started.elapsed().as_secs_f64());
        results.push(ChildResult { workload, result });
    }
    Ok(results)
}

fn results_json(o: &Opts, results: &[ChildResult]) -> Value {
    Value::obj([
        ("seed", Value::Int(i64::try_from(o.seed).unwrap_or(i64::MAX))),
        ("seconds", Value::Num(o.seconds)),
        ("trace", Value::Bool(o.trace)),
        ("profile", Value::Str(profile(o.smoke).name.into())),
        ("host_threads", Value::Int(host::host_threads() as i64)),
        (
            "workloads",
            Value::Obj(
                results.iter().map(|r| (r.workload.name().to_string(), r.result.clone())).collect(),
            ),
        ),
    ])
}

fn cmd_run(o: &Opts) -> Result<bool, String> {
    let results = run_children(o)?;
    let file = if o.trace { "result-trace.json" } else { "result.json" };
    let path = host::out_dir().join(file);
    std::fs::write(&path, results_json(o, &results).encode())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    let dirty: Vec<&str> =
        results.iter().filter(|r| !r.clean()).map(|r| r.workload.name()).collect();
    if !dirty.is_empty() {
        println!("# FAILED operations in: {}", dirty.join(", "));
    }
    Ok(dirty.is_empty())
}

/// An end-to-end metric's declaration in `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("end_to_end entry lacks {k}"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(b: &Bound, first: f64, second: f64) -> f64 {
    let delta = if b.higher_is_better { first - second } else { second - first };
    delta / first.abs()
}

/// Runs the full set twice with one seed; any end-to-end median of the
/// second set that is worse than the first's by more than its bound is
/// named and fails the command.
fn cmd_repeat(o: &Opts) -> Result<bool, String> {
    let bounds = read_bounds()?;
    let o = Opts { trace: false, ..o.clone() };
    let first = run_children(&o)?;
    let second = run_children(&o)?;
    let mut ok = first.iter().chain(&second).all(ChildResult::clean);
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for bound in &bounds {
            let (Some(x), Some(y)) = (a.metric(&bound.name), b.metric(&bound.name)) else {
                return Err(format!("{} did not report {}", a.workload.name(), bound.name));
            };
            let w = worsening(bound, x, y);
            let verdict = if w > bound.bound { "  <-- beyond bound" } else { "" };
            println!(
                "{:<20} {:<14} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.1}%{verdict}",
                a.workload.name(),
                bound.name,
                100.0 * w,
                100.0 * bound.bound
            );
            ok &= w <= bound.bound;
        }
    }
    Ok(ok)
}

/// Prints the per-layer table of each trace file in the output directory.
fn cmd_report(o: &Opts) -> Result<bool, String> {
    let mut ok = true;
    let mut found = 0;
    for workload in o.selected() {
        let path = host::out_dir().join(format!("trace-{}.json", workload.name()));
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let file = trace::TraceFile::from_json(&json::parse(&text)?)?;
        found += 1;
        print!("{}", file.render());
        // A single-threaded pass is tiled by its spans; the remainder is
        // loop overhead and must stay small for the shares to mean anything.
        if file.threads == 1 && file.unattributed_share() > 0.05 {
            println!("  ^ more than 5 % of the pass is unattributed");
            ok = false;
        }
        println!();
    }
    if found == 0 {
        return Err(format!(
            "no trace files in {}; run `run --trace` first",
            host::out_dir().display()
        ));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s, &args[1..]),
        _ => ("", &args[..]),
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match sub {
        "" if opts.workload.is_some() => return run_one(&opts),
        "fixture" => {
            fixture::build(&profile(opts.smoke));
            Ok(true)
        }
        "run" => cmd_run(&opts),
        "repeat" => cmd_repeat(&opts),
        "report" => cmd_report(&opts),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_human_spellings_of_trace_both_parse() {
        let o = parse_opts(&args("--workload match_mma --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::MatchMma), 9, 3.0, true)
        );
        assert!(!parse_opts(&args("--trace 0 --seed 2")).unwrap().trace);
        let o = parse_opts(&args("--trace --smoke")).unwrap();
        assert!(o.trace && o.smoke);
        assert!(parse_opts(&args("--workload nope")).is_err());
        assert!(parse_opts(&args("--seconds -1")).is_err());
        assert!(parse_opts(&args("--seed")).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = Bound { name: "op_p50_ms".into(), higher_is_better: false, bound: 0.08 };
        let higher = Bound { name: "points_per_s".into(), higher_is_better: true, bound: 0.08 };
        assert!((worsening(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 10.0, 12.0) < 0.0, "faster is not worse");
    }
}
