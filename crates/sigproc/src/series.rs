//! Irregularly-sampled time series.
//!
//! RFID tag reads arrive whenever the Gen2 inventory happens to single out a
//! tag, so per-tag phase/RSS streams are *not* uniformly sampled. The paper
//! mitigates this by framing (see [`crate::frames`]), which reads each
//! stream through time windows.

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
/// assert_eq!(ts.window(0.5, 2.0), (&[1.0][..], &[3.0][..]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
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

    /// Removes all samples, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.times.clear();
        self.values.clear();
    }

    /// Removes the first `n` samples (all of them if `n` exceeds the
    /// length) in place, keeping the allocated capacity.
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.times.drain(..n);
        self.values.drain(..n);
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

    /// Values slice, mutable; the timestamps stay as they are.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterates `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
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
        assert_eq!(ts.times()[0], 0.0);
        assert_eq!(ts.values()[10], 10.0);
    }

    #[test]
    #[should_panic(expected = "timestamp went backwards")]
    fn rejects_backwards_time() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 0.0);
        ts.push(0.5, 0.0);
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
        // A window over the duplicated instant holds both, in push order.
        assert_eq!(ts.window(1.0, 1.5).1, &[1.0, 2.0]);
    }
}
