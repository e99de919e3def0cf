//! Irregularly-sampled time series.
//!
//! RFID tag reads arrive whenever the Gen2 inventory happens to single out a
//! tag, so per-tag phase/RSS streams are *not* uniformly sampled. The paper
//! mitigates this by framing (see [`crate::frames`]); for analyses that need
//! uniform sampling this module provides linear-interpolation resampling.

use serde::{Deserialize, Serialize};

/// A time-ordered sequence of `(timestamp seconds, value)` samples.
///
/// Timestamps must be non-decreasing; [`push`](Self::push) enforces this.
///
/// # Example
///
/// ```
/// use sigproc::series::TimeSeries;
///
/// let mut ts = TimeSeries::new();
/// ts.push(0.0, 1.0);
/// ts.push(1.0, 3.0);
/// assert_eq!(ts.interpolate(0.5), Some(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a series from parallel time/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or times are not non-decreasing.
    pub fn from_parts(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "timestamps must be non-decreasing"
        );
        Self { times, values }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last timestamp.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "timestamp went backwards: {t} < {last}");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Removes all samples, keeping the allocated capacity (for use as a
    /// reusable scratch buffer with the `_into` methods).
    pub fn clear(&mut self) {
        self.times.clear();
        self.values.clear();
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Timestamps slice.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Values slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// First timestamp, if any.
    pub fn start_time(&self) -> Option<f64> {
        self.times.first().copied()
    }

    /// Last timestamp, if any.
    pub fn end_time(&self) -> Option<f64> {
        self.times.last().copied()
    }

    /// Total time span in seconds (0.0 if fewer than two samples).
    pub fn duration(&self) -> f64 {
        match (self.start_time(), self.end_time()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// Linear interpolation at time `t`.
    ///
    /// Returns `None` outside the sampled span or for an empty series.
    /// At an exact sample time, returns that sample.
    pub fn interpolate(&self, t: f64) -> Option<f64> {
        if self.times.is_empty() || t < self.times[0] || t > *self.times.last().expect("nonempty") {
            return None;
        }
        let idx = self.times.partition_point(|&x| x < t);
        if idx < self.times.len() && self.times[idx] == t {
            return Some(self.values[idx]);
        }
        // t lies strictly between times[idx-1] and times[idx].
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.values[idx - 1], self.values[idx]);
        if t1 == t0 {
            return Some(v1);
        }
        let frac = (t - t0) / (t1 - t0);
        Some(v0 + frac * (v1 - v0))
    }

    /// Resamples to a uniform grid with spacing `dt`, via linear interpolation.
    ///
    /// Returns an empty series when this series has fewer than two samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn resample(&self, dt: f64) -> TimeSeries {
        let mut out = TimeSeries::new();
        self.resample_into(dt, &mut out);
        out
    }

    /// Like [`resample`](Self::resample), but reuses `out`'s allocation and
    /// sweeps a single cursor over the samples — O(n + m) for n samples and
    /// m grid points instead of a binary search per grid point. The output
    /// is bit-identical to [`resample`](Self::resample).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn resample_into(&self, dt: f64, out: &mut TimeSeries) {
        crate::kernel::resample_linear_into(
            &self.times,
            &self.values,
            dt,
            &mut out.times,
            &mut out.values,
        );
    }

    /// Borrows the `(times, values)` of the samples with `start <= t < end`.
    ///
    /// The window is empty when `start >= end` or either bound is NaN.
    pub fn window(&self, start: f64, end: f64) -> (&[f64], &[f64]) {
        // A NaN bound fails `start < end` too.
        let (lo, hi) = if start < end {
            let lo = self.times.partition_point(|&x| x < start);
            // Searching only past `lo` keeps `hi >= lo` for any input.
            (lo, lo + self.times[lo..].partition_point(|&x| x < end))
        } else {
            (0, 0)
        };
        (&self.times[lo..hi], &self.values[lo..hi])
    }

    /// Applies a function to every value, keeping timestamps.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries {
            times: self.times.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Consecutive differences of the values: `v[i+1] - v[i]`, timestamped at
    /// the later sample. Empty if fewer than two samples.
    pub fn diff(&self) -> TimeSeries {
        let mut out = TimeSeries::new();
        self.diff_into(&mut out);
        out
    }

    /// Like [`diff`](Self::diff), but reuses `out`'s allocation.
    pub fn diff_into(&self, out: &mut TimeSeries) {
        out.clear();
        if self.times.len() < 2 {
            return;
        }
        out.times.reserve(self.times.len() - 1);
        out.values.reserve(self.times.len() - 1);
        for i in 1..self.times.len() {
            out.times.push(self.times[i]);
            out.values.push(self.values[i] - self.values[i - 1]);
        }
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

impl Extend<(f64, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> TimeSeries {
        (0..11).map(|i| (i as f64 * 0.1, i as f64)).collect()
    }

    #[test]
    fn push_and_len() {
        let ts = ramp();
        assert_eq!(ts.len(), 11);
        assert!(!ts.is_empty());
        assert_eq!(ts.start_time(), Some(0.0));
        assert!((ts.duration() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "timestamp went backwards")]
    fn rejects_backwards_time() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 0.0);
        ts.push(0.5, 0.0);
    }

    #[test]
    fn interpolate_exact_and_between() {
        let ts = ramp();
        assert_eq!(ts.interpolate(0.2), Some(2.0));
        let v = ts.interpolate(0.25).expect("in range");
        assert!((v - 2.5).abs() < 1e-9);
    }

    #[test]
    fn interpolate_out_of_range_is_none() {
        let ts = ramp();
        assert_eq!(ts.interpolate(-0.1), None);
        assert_eq!(ts.interpolate(1.1), None);
        assert_eq!(TimeSeries::new().interpolate(0.0), None);
    }

    #[test]
    fn resample_uniform() {
        let ts = ramp();
        let r = ts.resample(0.05);
        assert!(r.len() >= 20);
        for (t, v) in r.iter() {
            assert!((v - t * 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_too_short_is_empty() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        assert!(ts.resample(0.1).is_empty());
    }

    #[test]
    fn window_half_open() {
        let ts = ramp();
        let (times, values) = ts.window(0.2, 0.5);
        assert_eq!(times.len(), 3); // samples at 0.2, 0.3, 0.4
        assert_eq!(values, &[2.0, 3.0, 4.0]);
        assert_eq!(ts.window(0.5, 0.2), (&[][..], &[][..]));
    }

    #[test]
    fn diff_of_ramp_is_constant() {
        let ts = ramp();
        let d = ts.diff();
        assert_eq!(d.len(), 10);
        for (_, v) in d.iter() {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn map_values_preserves_times() {
        let ts = ramp();
        let m = ts.map_values(|v| v * 2.0);
        assert_eq!(m.times(), ts.times());
        assert_eq!(m.values()[5], 10.0);
    }

    #[test]
    fn resample_into_reuses_buffer_and_matches_resample() {
        let ts = ramp();
        let mut out = TimeSeries::new();
        out.push(99.0, 99.0); // stale content must be cleared
        ts.resample_into(0.07, &mut out);
        assert_eq!(out, ts.resample(0.07));
    }

    #[test]
    fn resample_into_handles_duplicate_times() {
        let ts: TimeSeries = [(0.0, 1.0), (0.5, 2.0), (0.5, 4.0), (1.0, 3.0)]
            .into_iter()
            .collect();
        let mut out = TimeSeries::new();
        ts.resample_into(0.25, &mut out);
        assert_eq!(out, ts.resample(0.25));
    }

    #[test]
    fn diff_into_matches_diff() {
        let ts = ramp();
        let mut out = TimeSeries::new();
        ts.diff_into(&mut out);
        assert_eq!(out, ts.diff());
        TimeSeries::new().diff_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_usable() {
        let mut ts = ramp();
        ts.clear();
        assert!(ts.is_empty());
        ts.push(0.0, 1.0); // still accepts samples after clear
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn duplicate_timestamps_allowed() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 1.0);
        ts.push(1.0, 2.0);
        assert_eq!(ts.len(), 2);
        // Interpolation at the duplicated instant returns a defined value.
        let v = ts.interpolate(1.0).expect("in range");
        assert!(v == 1.0 || v == 2.0);
    }
}
