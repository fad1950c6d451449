//! Order statistics: percentiles over the reads of a pass, and the
//! quartiles across runs that `compare` and the bounds are judged by.

/// Sorted copy of `values` (total order; the inputs are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`: the mean of the two middle elements when the
/// count is even. 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The element at rank `⌊p·n⌋` of the ascending order (clamped to the
/// last one): with `n = 128` and `p = 0.9` that is index 115, which
/// leaves 12 samples beyond it. 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[((p * v.len() as f64) as usize).min(v.len() - 1)]
}

/// Which direction of a metric is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the driver judges spreads with
/// that function, so `compare` uses the same arithmetic. Needs two
/// values; a single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // statistics.quantiles, method="exclusive": j = i·(n+1)/4
        // clamped to [1, n−1], then linear interpolation.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// `(q3 − q1) / |median|`: the run-to-run spread the bounds are set
/// against. 0 when the median is 0.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_leaves_the_promised_samples_beyond() {
        let v: Vec<f64> = (0..128).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 115.0);
        assert_eq!(v.iter().filter(|&&x| x > 115.0).count(), 12);
        assert_eq!(percentile(&[4.0], 0.9), 4.0);
        assert_eq!(median(&[1.0, 9.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 4.0, 5.5));
        assert!((relative_iqr(&ten) - 1.0).abs() < 1e-12);
    }
}
