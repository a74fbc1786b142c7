//! Order statistics over latency samples and repeated runs.

/// Timings are reported at p90 only with at least ten samples beyond it.
pub const MIN_P90_SAMPLES: usize = 100;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank 90th percentile. Refuses fewer than
/// [`MIN_P90_SAMPLES`] samples, where fewer than ten would lie beyond it.
pub fn p90(values: &[f64]) -> Result<f64, String> {
    if values.len() < MIN_P90_SAMPLES {
        return Err(format!(
            "p90 needs at least {MIN_P90_SAMPLES} samples, got {}",
            values.len()
        ));
    }
    let v = sorted(values);
    let rank = (v.len() * 9).div_ceil(10);
    Ok(v[rank - 1])
}

/// First quartile, median and third quartile, by the same "exclusive"
/// method as Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_small_samples() {
        let small: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(p90(&small).is_err());
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&enough), Ok(90.0));
        let more: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(p90(&more), Ok(900.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn geomean_of_powers_of_two() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
