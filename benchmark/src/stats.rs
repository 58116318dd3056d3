//! Order statistics for the benchmark's samples.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartile `i` (1 or 3) of sorted `v`, two values or more, exactly as
/// Python's `statistics.quantiles(v, n=4)` (exclusive method) computes it.
fn quartile(v: &[f64], i: usize) -> f64 {
    let m = v.len();
    let pos = (i * (m + 1)) as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, m - 1);
    v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty sample: a metric without a single measurement is a
/// bug in the benchmark, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and quartiles, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// the spreads printed here are the ones the acceptance driver computes.
/// A sample of one has both quartiles at its only value.
pub fn summarize(values: &[f64]) -> Summary {
    let m = median(values);
    let v = sorted(values);
    let n = v.len();
    let (q1, q3) = if n < 2 { (m, m) } else { (quartile(&v, 1), quartile(&v, 3)) };
    Summary { median: m, q1, q3, n }
}

/// The `p`-th percentile (nearest rank) of `values` — but only when at
/// least `beyond` samples lie strictly above that rank, so that the tail
/// it summarises is itself a sample and not a single outlier.
pub fn percentile_with_tail(values: &[f64], p: f64, beyond: usize) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let v = sorted(values);
    let rank = ((p * v.len() as f64 / 100.0).ceil() as usize).clamp(1, v.len());
    (v.len() - rank >= beyond).then(|| v[rank - 1])
}
