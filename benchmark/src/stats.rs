//! Order statistics the report and `compare` share.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method), so `compare` and the driver agree
/// on what a spread is. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; `0` with fewer than two
/// samples (a single run has no spread to speak of).
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                ((q3 - q1) / m).abs()
            }
        }
        None => 0.0,
    }
}

/// Jain's fairness index of per-client throughputs: 1 when all are equal,
/// `1/n` when one client gets everything.
pub fn jain(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let squares: f64 = values.iter().map(|x| x * x).sum();
    if squares == 0.0 {
        return 0.0;
    }
    sum * sum / (values.len() as f64 * squares)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0); // 10 samples beyond it
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain(&[5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
