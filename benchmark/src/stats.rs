//! Order statistics the report is made of: medians over passes, pass
//! quartiles, and the percentile picker that refuses to name a tail it has
//! too few samples to see.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` ascending (NaN-free inputs; timings and counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice, the "inclusive"
/// method: `q = 0` is the minimum, `q = 1` the maximum.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// `(first quartile, median, third quartile)` of `xs`.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.5), quantile_sorted(&v, 0.75))
}

/// The highest percentile not above `want` that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median
/// does not (fewer than `2 * MIN_BEYOND` samples).
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let cap = (n - MIN_BEYOND) as f64 / n as f64;
    Some(want.min(cap))
}

/// One reported latency tail: the value, the percentile it really is, and
/// how many samples it was picked from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Picks the `want` percentile of `xs` (nearest rank), lowered as far as
/// the ten-samples-beyond rule demands.
///
/// # Panics
/// Panics when `xs` has fewer than `2 * MIN_BEYOND` samples: the workload
/// sizes are fixed so that this cannot happen.
pub fn tail(xs: &[f64], want: f64) -> Tail {
    let n = xs.len();
    let p = supported_percentile(n, want).expect("too few samples for any percentile");
    let v = sorted(xs);
    // The clamp absorbs `p * n` landing a hair above a whole number.
    let rank = (p * n as f64).ceil() as usize;
    let ix = rank.saturating_sub(1).min(n - 1 - MIN_BEYOND);
    Tail { value: v[ix], percentile: p, samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_ramp() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (3.0, 5.0, 7.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn picker_honours_ten_samples_beyond() {
        // 1 000 samples support p99 exactly: ten lie beyond it.
        assert_eq!(supported_percentile(1000, 0.99), Some(0.99));
        // 500 samples cannot: the highest honest percentile is p98.
        assert_eq!(supported_percentile(500, 0.99), Some(0.98));
        assert_eq!(supported_percentile(19, 0.5), None);

        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs, 0.99);
        assert_eq!(t.percentile, 0.99);
        assert_eq!(t.value, 989.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);

        let xs: Vec<f64> = (0..150).map(f64::from).collect();
        let t = tail(&xs, 0.99);
        assert!((t.percentile - 140.0 / 150.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
        assert_eq!(t.samples, 150);
    }

    #[test]
    fn more_samples_beyond_when_the_percentile_allows() {
        let xs: Vec<f64> = (0..4000).map(f64::from).collect();
        let t = tail(&xs, 0.99);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 40);
    }
}
