//! Summary statistics and empirical CDFs.

/// Arithmetic mean of a slice. Returns 0.0 for an empty slice.
///
/// ```
/// assert_eq!(sigproc::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance of a slice. Returns 0.0 for fewer than two samples.
pub fn variance(data: &[f64]) -> f64 {
    variance_of(data.iter().copied())
}

/// [`variance`] of values read through an iterator, walked twice in the
/// same order, so the result is bit for bit the variance of a slice of
/// them — for values that live in a field of each element.
pub fn variance_of(values: impl ExactSizeIterator<Item = f64> + Clone) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let m = values.clone().sum::<f64>() / n as f64;
    values.map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64
}

/// Population standard deviation of a slice.
///
/// ```
/// let sd = sigproc::stats::std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert!((sd - 2.0).abs() < 1e-12);
/// ```
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Root mean square of a slice. Returns 0.0 for an empty slice.
///
/// ```
/// assert!((sigproc::stats::rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
/// ```
pub fn rms(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    (data.iter().map(|&x| x * x).sum::<f64>() / data.len() as f64).sqrt()
}

/// Median of a slice (average of the two central elements for even length),
/// ranked by [`f64::total_cmp`]. Returns 0.0 for an empty slice.
pub fn median(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Linear-interpolation percentile, `p` in `[0, 100]`. Samples are ranked
/// by [`f64::total_cmp`], so a NaN sorts past every number.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if data.is_empty() {
        return 0.0;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Minimum of a slice, ignoring NaN. Returns `f64::INFINITY` for empty input.
pub fn min(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice, ignoring NaN. Returns `f64::NEG_INFINITY` for empty input.
pub fn max(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Empirical cumulative distribution function over a fixed sample set.
///
/// # Example
///
/// ```
/// use sigproc::stats::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.eval(0.0), 0.0);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples, ignoring NaN ones.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The smallest sample value at which the CDF reaches `q` (inverse CDF).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]` or the ECDF is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile out of range: {q}");
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_and_std() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!((variance(&data) - 1.25).abs() < 1e-12);
        assert!((std_dev(&data) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_ranks_nan_past_every_number() {
        assert_eq!(median(&[3.0, f64::NAN, 1.0]), 3.0);
    }

    #[test]
    fn percentile_ranks_nan_past_every_number() {
        let data = [2.0, f64::NAN, 1.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 50.0), 2.0);
        assert!(percentile(&data, 100.0).is_nan());
    }

    #[test]
    fn ecdf_ignores_nan_samples() {
        let cdf = Ecdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.eval(1.5), 0.5);
        assert_eq!(cdf.eval(2.0), 1.0);
    }

    #[test]
    fn percentile_endpoints() {
        let d = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&d, 0.0), 10.0);
        assert_eq!(percentile(&d, 100.0), 30.0);
        assert_eq!(percentile(&d, 50.0), 20.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn rms_constant_signal() {
        assert!((rms(&[2.0; 16]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_step_behaviour() {
        let cdf = Ecdf::new(vec![1.0, 1.0, 2.0]);
        assert!((cdf.eval(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cdf.eval(1.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.eval(2.0), 1.0);
    }

    #[test]
    fn ecdf_quantile() {
        let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.quantile(0.2), 1.0);
        assert_eq!(cdf.quantile(0.9), 5.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
    }

    #[test]
    fn min_max_ignore_nan() {
        let d = [3.0, f64::NAN, -1.0, 7.0];
        assert_eq!(min(&d), -1.0);
        assert_eq!(max(&d), 7.0);
    }
}
