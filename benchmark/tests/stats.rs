//! The order statistics every reported number goes through.

use sttcp_perf::stats::{median, percentile_with_tail, summarize};

#[test]
fn median_of_odd_even_and_unsorted_samples() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
#[should_panic(expected = "empty sample")]
fn median_of_nothing_is_a_bug() {
    median(&[]);
}

/// Reference values are what Python's `statistics.quantiles(v, n=4)`
/// prints — the driver computes its spreads with that function.
#[test]
fn quartiles_match_python_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = summarize(&ten);
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));

    let s = summarize(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]);
    assert_eq!((s.q1, s.median, s.q3), (2.0, 5.0, 8.0));

    let s = summarize(&[3.0, 1.0, 2.0]);
    assert_eq!((s.q1, s.q3), (1.0, 3.0));

    // Two values: Python extrapolates beyond both.
    let s = summarize(&[1.0, 2.0]);
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));

    // One value: Python refuses; the benchmark reports it as its own quartiles.
    let s = summarize(&[4.0]);
    assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    // p99 of 1000 = rank 990, ten samples above it.
    assert_eq!(percentile_with_tail(&thousand, 99.0, 10), Some(990.0));
    // One sample fewer and only nine lie beyond: not reported.
    assert_eq!(percentile_with_tail(&thousand[..999], 99.0, 10), None);
    // The median of 21 has ten beyond it; the median of 19 only nine.
    let small: Vec<f64> = (1..=21).map(f64::from).collect();
    assert_eq!(percentile_with_tail(&small, 50.0, 10), Some(11.0));
    assert_eq!(percentile_with_tail(&small[..19], 50.0, 10), None);
    assert_eq!(percentile_with_tail(&[], 50.0, 0), None);
    assert_eq!(percentile_with_tail(&small, 101.0, 0), None);
    // Order of the input does not matter.
    assert_eq!(percentile_with_tail(&[5.0, 1.0, 3.0], 100.0, 0), Some(5.0));
}
