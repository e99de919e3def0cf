//! Lock-free metric primitives: counters, gauges, and histograms.
//!
//! All recording operations are single relaxed atomic ops (a histogram
//! record is a handful). None of them allocate or block, so they are safe
//! to call from the recognition hot path. Snapshots are taken concurrently
//! with recording and are *approximately consistent*: a snapshot racing a
//! record may see the count updated before the sample lands in the window,
//! which is harmless for monitoring.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed log-spaced bucket bounds for durations in nanoseconds:
/// 50 ns – 10 ms. Queue pushes routinely finish in a few hundred
/// nanoseconds, which microsecond resolution would flatten to zero.
pub const DEFAULT_DURATION_BOUNDS_NS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// How many raw samples a histogram retains for exact percentiles: the
/// window behind each engine session's push-latency percentiles.
pub const SAMPLE_WINDOW: usize = 4096;

/// A fixed-bucket histogram with an exact-percentile sample window.
///
/// Recording is lock-free: bucket counts, count/sum/max, and a bounded
/// ring of raw samples are all relaxed atomics. [`Histogram::snapshot`]
/// copies and sorts the window (at most [`SAMPLE_WINDOW`] samples), so
/// p50/p90/p99/max are exact over the recent window rather than
/// bucket-boundary estimates.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending inclusive upper bounds; the implicit final bucket is +Inf.
    bounds: Vec<u64>,
    /// Per-bucket counts, `bounds.len() + 1` entries.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    window: Vec<AtomicU64>,
    cursor: AtomicUsize,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            window: (0..SAMPLE_WINDOW).map(|_| AtomicU64::new(0)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// The configured bucket bounds (without the implicit +Inf).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        // `le` is inclusive, Prometheus-style: first bound >= value.
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.window.len();
        self.window[slot].store(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole nanoseconds (saturating)
    /// — pair with [`DEFAULT_DURATION_BOUNDS_NS`]. The one way to time
    /// into a histogram: read the clock around the work, guarded by
    /// [`crate::telemetry_on`] where the timing is optional, and record the
    /// elapsed time.
    #[inline]
    pub fn record_duration_ns(&self, elapsed: std::time::Duration) {
        self.record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations ever recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot with exact percentiles over the recent
    /// sample window.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let filled = (count.min(self.window.len() as u64)) as usize;
        let mut samples: Vec<u64> = self.window[..filled]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        samples.sort_unstable();
        let pick = |p: f64| -> u64 {
            if samples.is_empty() {
                0
            } else {
                samples[((samples.len() - 1) as f64 * p).round() as usize]
            }
        };
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = self.bounds.get(i).copied().map(|b| b as f64);
            buckets.push((le.unwrap_or(f64::INFINITY), cumulative));
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            buckets,
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations ever recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest value ever recorded.
    pub max: u64,
    /// Exact median over the recent sample window.
    pub p50: u64,
    /// Exact 90th percentile over the recent sample window.
    pub p90: u64,
    /// Exact 99th percentile over the recent sample window.
    pub p99: u64,
    /// `(upper bound, cumulative count)` per bucket; the last bound is
    /// `f64::INFINITY`.
    pub buckets: Vec<(f64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[10, 100]);
        h.record(10); // lands in le=10
        h.record(11); // lands in le=100
        h.record(1_000); // lands in +Inf
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], (10.0, 1));
        assert_eq!(snap.buckets[1], (100.0, 2));
        assert_eq!(snap.buckets[2], (f64::INFINITY, 3));
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 1_021);
        assert_eq!(snap.max, 1_000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let h = Histogram::new(DEFAULT_DURATION_BOUNDS_NS);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!((snap.p50, snap.p90, snap.p99, snap.max), (0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn window_overflow_keeps_recent_samples() {
        let h = Histogram::new(&[1_000_000]);
        // Overfill the window with small values, then flood with 500s: the
        // percentile window must reflect the recent flood.
        for _ in 0..SAMPLE_WINDOW {
            h.record(1);
        }
        for _ in 0..SAMPLE_WINDOW {
            h.record(500);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 2 * SAMPLE_WINDOW as u64);
        assert_eq!(snap.p50, 500);
        assert_eq!(snap.max, 500);
    }
}
