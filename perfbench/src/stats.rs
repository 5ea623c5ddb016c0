//! Order statistics and interleaved paired trials.
//!
//! Every figure the benchmark reports is a median with its quartiles and
//! sample count. Quartiles follow Python's `statistics.quantiles(data,
//! n=4)` (the default "exclusive" method), so the benchmark's own spread
//! matches the one computed over its outputs. Ratios come only from
//! [`paired`]: the median of per-pair ratios, with the order inside each
//! pair alternating. No best-of or max-of-ratios estimator is used: both
//! are biased toward the favourable side.

use std::time::{Duration, Instant};

/// Median, quartiles and sample count of one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`. Panics on an empty slice: every caller measures
    /// at least once.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A single exact value (a count or a size), `n = 1`.
    pub fn exact(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's `statistics.quantiles(data, n=4)`
/// ("exclusive" method). One sample is its own quartiles, as in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One side of a paired trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    A,
    B,
}

/// The run order of pair `i`: `A` first on even pairs, `B` first on odd
/// ones, so slow drift of the host's speed cancels across pairs.
pub fn pair_order(i: usize) -> [Side; 2] {
    if i.is_multiple_of(2) {
        [Side::A, Side::B]
    } else {
        [Side::B, Side::A]
    }
}

/// Interleaved paired trials: run at least `min_pairs` pairs, and more
/// until `budget` has elapsed. `time(side)` runs one side once and returns
/// its duration; the result summarises the per-pair ratios `B / A`.
pub fn paired(min_pairs: usize, budget: Duration, mut time: impl FnMut(Side) -> f64) -> Summary {
    let started = Instant::now();
    let mut ratio = Vec::new();
    let mut i = 0;
    while i < min_pairs.max(1) || started.elapsed() < budget {
        let (mut ta, mut tb) = (0.0, 0.0);
        for side in pair_order(i) {
            let t = time(side);
            match side {
                Side::A => ta = t,
                Side::B => tb = t,
            }
        }
        ratio.push(tb / ta);
        i += 1;
    }
    Summary::of(&ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values computed with Python 3.11:
    // statistics.median(d), statistics.quantiles(d, n=4).

    #[test]
    fn odd_count_matches_python() {
        let d = [7.0, 1.0, 3.0, 9.0, 5.0];
        assert_eq!(median(&d), 5.0);
        assert_eq!(quartiles(&d), (2.0, 8.0));
        let s = Summary::of(&d);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.0, 2.0, 8.0, 5));
    }

    #[test]
    fn even_count_matches_python() {
        let d = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&d), 2.5);
        assert_eq!(quartiles(&d), (1.25, 3.75));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
    }

    #[test]
    fn tiny_samples_match_python() {
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        assert_eq!(median(&[3.0]), 3.0);
        // Python extrapolates past the sample range for n = 2.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        assert_eq!(Summary::exact(42.0).n, 1);
    }

    #[test]
    fn pair_order_alternates() {
        assert_eq!(pair_order(0), [Side::A, Side::B]);
        assert_eq!(pair_order(1), [Side::B, Side::A]);
        assert_eq!(pair_order(2), [Side::A, Side::B]);
        let mut seen = Vec::new();
        paired(4, Duration::ZERO, |side| {
            seen.push(side);
            1.0
        });
        use Side::{A, B};
        assert_eq!(seen, [A, B, B, A, A, B, B, A]);
    }

    #[test]
    fn paired_ratio_is_median_of_per_pair_ratios() {
        // Side B costs 2x, 3x, 10x side A in successive pairs: the median
        // per-pair ratio is 3, while max-of-ratios would say 10 and the
        // ratio of best times (1 / 2) would say 2.
        let costs = [(1.0, 2.0), (1.0, 3.0), (1.0, 10.0)];
        let mut calls = 0;
        let p = paired(3, Duration::ZERO, |side| {
            let (a, b) = costs[calls / 2];
            calls += 1;
            match side {
                Side::A => a,
                Side::B => b,
            }
        });
        assert_eq!(p.median, 3.0);
        assert_eq!(p.n, 3);
    }
}
