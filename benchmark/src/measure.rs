//! What a timed phase yields and how it becomes the six end-to-end
//! metrics: every timing is the median over passes (never the best), with
//! the pass quartiles kept beside it.

use crate::json::Value;
use crate::stats::{self, Tail};

/// One timed pass over a workload's inputs.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Sparse GPS points whose result (trajectory result or ack) completed.
    pub points: usize,
    pub wall_s: f64,
    /// One latency per operation, seconds: a trajectory (batch) or a point,
    /// due/send → ack read (socket).
    pub op_s: Vec<f64>,
}

/// A workload's timed phase plus its (untimed) verification.
#[derive(Debug, Clone)]
pub struct Measured {
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
    /// Mean per-trajectory segment-set F1 against the generator's truth.
    pub seg_f1: f64,
    /// `VmHWM` when the timed phase ended.
    pub peak_rss_mb: f64,
}

/// A reported metric: the median over its samples, their quartiles, and
/// what the samples were.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Passes (or set-ups) the median is over.
    pub samples: usize,
    /// Free-form detail: operations per pass, the percentile really used.
    pub note: String,
}

impl Metric {
    /// An end-to-end metric over `xs`, its unit taken from [`END_TO_END`].
    fn over(name: &'static str, xs: &[f64], note: String) -> Self {
        let unit = END_TO_END
            .iter()
            .find_map(|&(n, unit)| (n == name).then_some(unit))
            .expect("a declared end-to-end metric");
        let (q1, value, q3) = stats::quartiles(xs);
        Self { name, unit, value, q1, q3, samples: xs.len(), note }
    }

    pub fn exact(name: &'static str, unit: &'static str, value: f64, note: String) -> Self {
        Self { name, unit, value, q1: value, q3: value, samples: 1, note }
    }

    /// One line of the human-readable report.
    pub fn render(&self) -> String {
        format!(
            "{:<44} {:>14.6} {:<8} q1 {:.6}  q3 {:.6}  n={}  {}",
            self.name, self.value, self.unit, self.q1, self.q3, self.samples, self.note
        )
    }

    pub fn to_json(&self) -> (String, Value) {
        (
            self.name.to_string(),
            Value::obj([("value", Value::Num(self.value)), ("unit", Value::Str(self.unit.into()))]),
        )
    }
}

/// Names and units of the six end-to-end metrics, as `BENCHMARK.json`
/// declares them (directions and bounds live there).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("seg_f1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The six end-to-end metrics of one run.
pub fn end_to_end(setup_s: &[f64], m: &Measured) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| m.passes.iter().map(f).collect::<Vec<f64>>();
    let ops = m.passes.first().map_or(0, |p| p.op_s.len());
    let tails: Vec<Tail> = m.passes.iter().map(|p| stats::tail(&p.op_s, 0.99)).collect();
    vec![
        Metric::over("setup_s", setup_s, "set-ups in this run".into()),
        Metric::over(
            "points_per_s",
            &per_pass(&|p| p.points as f64 / p.wall_s),
            format!("{} points/pass", m.passes.first().map_or(0, |p| p.points)),
        ),
        Metric::over(
            "op_p50_ms",
            &per_pass(&|p| stats::median(&p.op_s) * 1e3),
            format!("{ops} ops/pass"),
        ),
        Metric::over(
            "op_p99_ms",
            &tails.iter().map(|t| t.value * 1e3).collect::<Vec<f64>>(),
            format!(
                "{ops} ops/pass, p{:.2} (>= {} samples beyond)",
                100.0 * tails.first().map_or(0.0, |t| t.percentile),
                stats::MIN_BEYOND
            ),
        ),
        Metric::over("seg_f1", &[m.seg_f1], "exact given the seed".into()),
        Metric::over("peak_rss_mb", &[m.peak_rss_mb], "VmHWM after the timed phase".into()),
    ]
}

/// The last line of standard output, as the driver's contract spells it.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let int = |x: u64| Value::Int(i64::try_from(x).expect("count fits i64"));
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", Value::Obj(metrics.iter().map(Metric::to_json).collect())),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall_s: f64, op_ms: f64) -> Pass {
        Pass { points: 100, wall_s, op_s: vec![op_ms / 1e3; 40] }
    }

    #[test]
    fn timings_are_medians_over_passes_not_bests() {
        let m = Measured {
            passes: vec![pass(1.0, 3.0), pass(2.0, 1.0), pass(4.0, 2.0)],
            attempted: 120,
            failed: 0,
            seg_f1: 0.9,
            peak_rss_mb: 64.0,
        };
        let e2e = end_to_end(&[0.5, 0.1, 0.3], &m);
        let by = |n: &str| e2e.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(by("setup_s"), 0.3);
        assert_eq!(by("points_per_s"), 50.0, "the middle pass, not the 100/s best");
        assert!((by("op_p50_ms") - 2.0).abs() < 1e-12);
        assert_eq!(e2e.iter().map(|x| (x.name, x.unit)).collect::<Vec<_>>(), END_TO_END);

        let line = result_line(true, m.attempted, m.failed, &e2e);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_i64), Some(120));
        let f1 = v.get("metrics").and_then(|x| x.get("seg_f1")).unwrap();
        assert_eq!(f1.get("value").and_then(Value::as_f64), Some(0.9));
        assert_eq!(f1.get("unit").and_then(Value::as_str), Some("ratio"));
    }
}
