//! Fixed-duration framing and windowing of multi-stream signals.
//!
//! The RFIPad paper (§III-C1) mitigates the uneven sampling of tag reads by
//! cutting the per-tag phase streams into non-overlapping 100 ms *frames*,
//! computing a multi-tag RMS per frame (Eq. 11):
//!
//! ```text
//! rms(f) = Σ_{i=1..M} sqrt( Σ_{j=1..n} p_ij² / n )
//! ```
//!
//! and then grouping several successive frames into a *window* (default
//! 0.5 s = 5 frames) whose `std(rms(w))` is compared against a threshold
//! (Eq. 12) to decide whether a stroke is in progress.

use crate::series::TimeSeries;
use crate::stats;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Workspace-wide count of frames cut from per-tag streams, registered in
/// the process-global metric registry: every frame of a
/// [`FrameSeq::build`], and each frame a [`FrameBuilder`] settles — once,
/// however many advances keep it. The `Arc` is cached so steady-state
/// framing costs one relaxed atomic add.
fn frames_built_counter() -> &'static Arc<obs::Counter> {
    static COUNTER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        obs::registry().counter(
            "sigproc_frames_built_total",
            "Fixed-duration frames cut from per-tag streams (Eq. 11 framing): \
             each frame of a batch build, and each frame a streaming builder settles.",
            &[],
        )
    })
}

/// One fixed-duration frame aggregating all streams.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Frame start time in seconds.
    pub start: f64,
    /// Frame duration in seconds.
    pub duration: f64,
    /// Multi-stream RMS of the frame (paper Eq. 11).
    pub rms: f64,
    /// Total number of samples that fell into the frame, across streams.
    pub samples: usize,
}

impl Frame {
    /// Frame end time in seconds.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// A sequence of equally long, non-overlapping frames.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FrameSeq {
    frames: Vec<Frame>,
}

impl FrameSeq {
    /// Cuts the given per-stream time series into frames of `frame_len`
    /// seconds spanning `[start, end)` and computes the multi-stream RMS of
    /// each (paper Eq. 11). Streams with no samples in a frame contribute
    /// nothing to that frame's RMS.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len <= 0` or `end < start`.
    pub fn build(streams: &[TimeSeries], start: f64, end: f64, frame_len: f64) -> Self {
        Self::build_with_floors(streams, None, start, end, frame_len)
    }

    /// Like [`build`](Self::build), but subtracts a per-stream noise floor
    /// from each stream's frame RMS before summing (clamped at zero):
    /// `rms(f) = Σ_i max(0, rms_i(f) − floor_i)`.
    ///
    /// With floors set to each stream's static noise level, the result is an
    /// *excess* RMS that stays near zero in any environment and rises only
    /// with genuine signal — making activity thresholds environment-robust.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len <= 0`, `end < start`, or `floors` is provided
    /// with a length different from `streams`.
    pub fn build_with_floors(
        streams: &[TimeSeries],
        floors: Option<&[f64]>,
        start: f64,
        end: f64,
        frame_len: f64,
    ) -> Self {
        assert!(frame_len > 0.0, "frame length must be positive");
        assert!(end >= start, "frame range end before start");
        if let Some(f) = floors {
            assert_eq!(f.len(), streams.len(), "one floor per stream");
        }
        let count = ((end - start) / frame_len).ceil() as usize;
        let mut frames = Vec::with_capacity(count);
        for k in 0..count {
            let f_start = start + k as f64 * frame_len;
            let f_end = f_start + frame_len;
            let mut rms_sum = 0.0;
            let mut samples = 0;
            for (i, stream) in streams.iter().enumerate() {
                let (_, values) = stream.window(f_start, f_end);
                if !values.is_empty() {
                    let floor = floors.map(|f| f[i]).unwrap_or(0.0);
                    rms_sum += (stats::rms(values) - floor).max(0.0);
                    samples += values.len();
                }
            }
            frames.push(Frame {
                start: f_start,
                duration: frame_len,
                rms: rms_sum,
                samples,
            });
        }
        frames_built_counter().add(frames.len() as u64);
        Self { frames }
    }

    /// The frames in time order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether there are no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The per-frame RMS values as a plain vector.
    pub fn rms_values(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.rms).collect()
    }

    /// Groups consecutive frames into non-overlapping windows of `size`
    /// frames (the paper's default is 5 frames = 0.5 s). A trailing partial
    /// window is kept if it has at least one frame.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn windows(&self, size: usize) -> Vec<Window> {
        self.frames.chunks(size).map(Window::from_frames).collect()
    }
}

/// Streaming counterpart of [`FrameSeq::build_with_floors`]: appending a
/// sample is O(1), and [`advance`](Self::advance) brings one shared frame
/// sequence up to date without re-slicing any stream.
///
/// The output is **bit-identical** to a batch
/// [`FrameSeq::build_with_floors`] over the same samples because the
/// per-frame, per-stream sum of squares is accumulated in the same time
/// order that [`crate::stats::rms`] would visit a
/// [`window`](TimeSeries::window), and frame emission walks
/// streams in the same index order.
///
/// Frames whose end lies at or before the newest sample time can no longer
/// receive samples (assuming non-decreasing push times): they are
/// *settled*, computed once and kept in the sequence, so a steady-state
/// `push*`/`advance` cycle costs O(new samples + live tail frames), not
/// O(total frames). A push that does land in a settled frame (out-of-order
/// feed) lowers the settled count to that frame and stays correct. The
/// sequence is shared behind an `Arc` and updated in place.
///
/// # Example
///
/// ```
/// use sigproc::frames::{FrameBuilder, FrameSeq};
/// use sigproc::series::TimeSeries;
///
/// let stream: TimeSeries = (0..30).map(|i| (i as f64 * 0.01, 1.5)).collect();
/// let mut builder = FrameBuilder::new(1, None, 0.0, 0.1);
/// for (t, v) in stream.iter() {
///     builder.push(0, t, v);
/// }
/// assert_eq!(builder.advance(0.29), 0);
/// let batch = FrameSeq::build(&[stream], 0.0, 0.29, 0.1);
/// assert_eq!(*builder.shared_frames(), batch);
/// // Frames 0 and 1 end by the newest sample: settled, so they stand.
/// assert_eq!(builder.advance(0.29), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    start: f64,
    frame_len: f64,
    floors: Option<Vec<f64>>,
    n_streams: usize,
    /// Per-frame, per-stream running sum of squared sample values, laid out
    /// frame-major (`k * n_streams + stream`). A flat structure-of-arrays
    /// instead of a `Vec` of per-frame structs so that opening a new frame
    /// is an amortized `resize`, not two fresh allocations.
    acc_sum_sq: Vec<f64>,
    /// Per-frame, per-stream sample counts, same layout as `acc_sum_sq`.
    acc_count: Vec<usize>,
    /// The sequence of the latest [`advance`](Self::advance): the settled
    /// prefix followed by the live tail.
    frames: Arc<FrameSeq>,
    /// How many leading frames of `frames` are settled and untouched by
    /// any push since.
    settled: usize,
    /// Newest sample time seen so far.
    max_time: f64,
}

impl FrameBuilder {
    /// Creates a builder for `n_streams` streams with frames of `frame_len`
    /// seconds starting at `start`. `floors` are the per-stream noise floors
    /// (see [`FrameSeq::build_with_floors`]); `None` means no floors.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len <= 0` or `floors` is provided with a length
    /// different from `n_streams`.
    pub fn new(n_streams: usize, floors: Option<Vec<f64>>, start: f64, frame_len: f64) -> Self {
        assert!(frame_len > 0.0, "frame length must be positive");
        if let Some(f) = &floors {
            assert_eq!(f.len(), n_streams, "one floor per stream");
        }
        Self {
            start,
            frame_len,
            floors,
            n_streams,
            acc_sum_sq: Vec::new(),
            acc_count: Vec::new(),
            frames: Arc::default(),
            settled: 0,
            max_time: f64::NEG_INFINITY,
        }
    }

    /// Rewinds the builder to an empty state with a new range `start`,
    /// keeping the stream count, floors, frame length, and — crucially —
    /// the accumulator and frame allocations. A retention trim that
    /// rebuilds its framing cache re-anchors the builder through this
    /// instead of allocating a fresh one. The next
    /// [`advance`](Self::advance) reports no frame unchanged.
    pub fn reset_anchor(&mut self, start: f64) {
        self.start = start;
        self.acc_sum_sq.clear();
        self.acc_count.clear();
        Arc::make_mut(&mut self.frames).frames.clear();
        self.settled = 0;
        self.max_time = f64::NEG_INFINITY;
    }

    /// The frame range start passed to [`new`](Self::new).
    pub fn start(&self) -> f64 {
        self.start
    }

    /// The frame length passed to [`new`](Self::new), seconds.
    pub fn frame_len(&self) -> f64 {
        self.frame_len
    }

    /// Newest sample time seen so far ([`f64::NEG_INFINITY`] before the
    /// first sample). Together with [`start`](Self::start) and
    /// [`frame_len`](Self::frame_len) this pins down which frames are
    /// settled — the state a checkpoint needs to verify a rebuilt builder
    /// against the one it snapshotted.
    pub fn max_time(&self) -> f64 {
        self.max_time
    }

    /// Start time of frame `k`, with the exact rounding the batch build
    /// uses per frame.
    fn frame_start(&self, k: usize) -> f64 {
        self.start + k as f64 * self.frame_len
    }

    /// Appends one sample of stream `stream` at time `t`. Samples before
    /// `start` are ignored, exactly as they would fall outside every frame
    /// of the batch build.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn push(&mut self, stream: usize, t: f64, v: f64) {
        assert!(stream < self.n_streams, "stream index out of range");
        if t < self.start {
            return;
        }
        // The batch build tests membership per frame k as
        // `f_start <= t < f_start + frame_len`, with `f_start = start +
        // k * frame_len` rounded independently per frame — so consecutive
        // frames can overlap or leave a gap of an ulp at a boundary, and a
        // sample may fall in zero, one, or *two* frames. Replicate that
        // exactly: from the division estimate, walk down to the first frame
        // whose end lies after t, then accumulate into every frame whose
        // half-open range contains t.
        let est = ((t - self.start) / self.frame_len) as usize;
        let mut k = est;
        while k > 0 && self.frame_start(k - 1) + self.frame_len > t {
            k -= 1;
        }
        let mut first_touched = None;
        // In non-degenerate float ranges membership ends within a frame or
        // two of the estimate; the bound only guards against a frame_len
        // below the ulp of the timestamps, where frame starts stop
        // advancing.
        while self.frame_start(k) <= t && k <= est + 2 {
            if t < self.frame_start(k) + self.frame_len {
                first_touched.get_or_insert(k);
                let needed = (k + 1) * self.n_streams;
                if self.acc_count.len() < needed {
                    self.acc_sum_sq.resize(needed, 0.0);
                    self.acc_count.resize(needed, 0);
                }
                let idx = k * self.n_streams + stream;
                self.acc_sum_sq[idx] += v * v;
                self.acc_count[idx] += 1;
            }
            k += 1;
        }
        if let Some(first) = first_touched {
            self.settled = self.settled.min(first);
        }
        if t > self.max_time {
            self.max_time = t;
        }
    }

    /// Emits frame `k` from the accumulators, mirroring the batch build's
    /// stream-order walk (empty streams contribute nothing).
    fn compute_frame(&self, k: usize) -> Frame {
        let f_start = self.start + k as f64 * self.frame_len;
        let mut rms_sum = 0.0;
        let mut samples = 0;
        let base = k * self.n_streams;
        if base < self.acc_count.len() {
            let counts = &self.acc_count[base..base + self.n_streams];
            let sums = &self.acc_sum_sq[base..base + self.n_streams];
            // Ascending stream index mirrors the batch build's stream walk,
            // so the rms_sum accumulation order (and bits) are unchanged.
            for (i, (&n, &ssq)) in counts.iter().zip(sums).enumerate() {
                if n > 0 {
                    let floor = self.floors.as_ref().map(|f| f[i]).unwrap_or(0.0);
                    rms_sum += ((ssq / n as f64).sqrt() - floor).max(0.0);
                    samples += n;
                }
            }
        }
        Frame {
            start: f_start,
            duration: self.frame_len,
            rms: rms_sum,
            samples,
        }
    }

    /// Brings the frame sequence up to `[start, end)`, bit-identical to
    /// [`FrameSeq::build_with_floors`] over the same samples, and returns
    /// how many leading frames are unchanged since the previous call: the
    /// settled frames no push has touched since. May be called repeatedly
    /// with a growing `end` as more samples arrive. A handle from
    /// [`shared_frames`](Self::shared_frames) still held makes this copy
    /// the sequence first.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn advance(&mut self, end: f64) -> usize {
        assert!(end >= self.start, "frame range end before start");
        let count = ((end - self.start) / self.frame_len).ceil() as usize;
        let unchanged = self.settled.min(count);
        // Detach the frame vector so frames can be computed from `self`
        // while it grows; under a sole handle nothing is copied.
        let mut frames = std::mem::take(&mut Arc::make_mut(&mut self.frames).frames);
        frames.truncate(unchanged);
        // Settle frames that can no longer change: every future sample
        // arrives at `t >= max_time` in a monotone feed, so a frame ending
        // at or before `max_time` is settled (membership needs
        // `t < f_start + frame_len`, the same rounded expression as here).
        // Only frames of this sequence settle: once half an ulp of the
        // timestamps exceeds the frame length, frame ends stop advancing
        // and every later frame would pass the test.
        while frames.len() < count
            && self.frame_start(frames.len()) + self.frame_len <= self.max_time
        {
            frames.push(self.compute_frame(frames.len()));
        }
        frames_built_counter().add((frames.len() - unchanged) as u64);
        self.settled = frames.len();
        frames.extend((self.settled..count).map(|k| self.compute_frame(k)));
        Arc::make_mut(&mut self.frames).frames = frames;
        unchanged
    }

    /// A shared handle to the frame sequence as of the latest
    /// [`advance`](Self::advance). Holding it across the next advance is
    /// allowed but makes that advance copy the sequence; drop the handle
    /// when done with it.
    pub fn shared_frames(&self) -> Arc<FrameSeq> {
        Arc::clone(&self.frames)
    }
}

/// A group of successive frames treated as one unit for stroke detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Window start time in seconds.
    pub start: f64,
    /// Window end time in seconds.
    pub end: f64,
    /// RMS of each member frame.
    pub frame_rms: Vec<f64>,
}

impl Window {
    /// Builds a window from a non-empty run of frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn from_frames(frames: &[Frame]) -> Self {
        assert!(!frames.is_empty(), "window needs at least one frame");
        Self {
            start: frames[0].start,
            end: frames.last().expect("nonempty").end(),
            frame_rms: frames.iter().map(|f| f.rms).collect(),
        }
    }

    /// Standard deviation of the member frames' RMS — the paper's
    /// `std(rms(w))` (left side of Eq. 12).
    pub fn rms_std(&self) -> f64 {
        stats::std_dev(&self.frame_rms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_stream(value: f64, n: usize, dt: f64) -> TimeSeries {
        (0..n).map(|i| (i as f64 * dt, value)).collect()
    }

    #[test]
    fn framing_covers_range() {
        let s = constant_stream(1.0, 100, 0.01); // 1 second of samples
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        assert_eq!(fs.len(), 10);
        assert!((fs.frames()[0].start).abs() < 1e-12);
        assert!((fs.frames()[9].end() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_signal_rms_equals_value() {
        let s = constant_stream(2.0, 100, 0.01);
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        for f in fs.frames() {
            assert!((f.rms - 2.0).abs() < 1e-9, "frame rms {}", f.rms);
        }
    }

    #[test]
    fn multi_stream_rms_sums_across_streams() {
        // Eq. 11 sums per-tag RMS over tags: two constant streams of 1.0 and
        // 3.0 give frame RMS 4.0.
        let a = constant_stream(1.0, 50, 0.01);
        let b = constant_stream(3.0, 50, 0.01);
        let fs = FrameSeq::build(&[a, b], 0.0, 0.5, 0.1);
        for f in fs.frames() {
            assert!((f.rms - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_frame_has_zero_rms() {
        let s = constant_stream(1.0, 10, 0.01); // only first 0.1 s populated
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        assert!(fs.frames()[0].rms > 0.0);
        for f in &fs.frames()[1..] {
            assert_eq!(f.rms, 0.0);
            assert_eq!(f.samples, 0);
        }
    }

    #[test]
    fn windows_nonoverlapping_partition() {
        let s = constant_stream(1.0, 100, 0.01);
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        let ws = fs.windows(5);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].frame_rms.len(), 5);
        assert!((ws[0].end - ws[1].start).abs() < 1e-12);
    }

    #[test]
    fn trailing_partial_window_kept() {
        let s = constant_stream(1.0, 100, 0.01);
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        let ws = fs.windows(3); // 10 frames -> 3+3+3+1
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[3].frame_rms.len(), 1);
    }

    #[test]
    fn constant_window_is_inactive() {
        let s = constant_stream(5.0, 100, 0.01);
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        for w in fs.windows(5) {
            assert!(w.rms_std() < 1e-9);
        }
    }

    #[test]
    fn varying_window_is_active() {
        // Big RMS swing between frames -> active window.
        let mut s = TimeSeries::new();
        for i in 0..100 {
            let t = i as f64 * 0.01;
            let v = if ((t / 0.1) as usize).is_multiple_of(2) {
                0.1
            } else {
                5.0
            };
            s.push(t, v);
        }
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        let ws = fs.windows(5);
        assert!(ws.iter().any(|w| w.rms_std() > 0.5));
    }

    #[test]
    #[should_panic(expected = "frame length must be positive")]
    fn zero_frame_len_panics() {
        FrameSeq::build(&[], 0.0, 1.0, 0.0);
    }

    /// Interleaves the streams' samples in global time order, the order a
    /// live feed would deliver them.
    fn push_interleaved(builder: &mut FrameBuilder, streams: &[TimeSeries]) {
        let mut samples: Vec<(f64, usize, f64)> = streams
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |(t, v)| (t, i, v)))
            .collect();
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN times"));
        for (t, i, v) in samples {
            builder.push(i, t, v);
        }
    }

    #[test]
    fn builder_matches_batch_with_floors_and_ragged_spans() {
        // Stream 0 covers the whole second; stream 1 only a middle chunk.
        let a: TimeSeries = (0..100)
            .map(|i| (i as f64 * 0.01, (i as f64 * 0.37).sin() * 2.0))
            .collect();
        let b: TimeSeries = (30..60)
            .map(|i| (i as f64 * 0.01, (i as f64 * 0.53).cos() * 3.0))
            .collect();
        let floors = vec![0.4, 1.1];
        let batch =
            FrameSeq::build_with_floors(&[a.clone(), b.clone()], Some(&floors), 0.0, 0.99, 0.1);
        let mut builder = FrameBuilder::new(2, Some(floors), 0.0, 0.1);
        push_interleaved(&mut builder, &[a, b]);
        builder.advance(0.99);
        assert_eq!(*builder.shared_frames(), batch);
    }

    #[test]
    fn builder_incremental_builds_match_growing_batch() {
        let s: TimeSeries = (0..200)
            .map(|i| (i as f64 * 0.013, i as f64 * 0.1))
            .collect();
        let mut builder = FrameBuilder::new(1, None, 0.0, 0.1);
        let mut fed = TimeSeries::new();
        for (t, v) in s.iter() {
            builder.push(0, t, v);
            fed.push(t, v);
            let end = t;
            let batch = FrameSeq::build(&[fed.clone()], 0.0, end, 0.1);
            builder.advance(end);
            assert_eq!(*builder.shared_frames(), batch, "diverged at t={t}");
        }
    }

    #[test]
    fn builder_out_of_order_push_invalidates_finalized_prefix() {
        let mut builder = FrameBuilder::new(1, None, 0.0, 0.1);
        builder.push(0, 0.05, 1.0);
        builder.push(0, 0.95, 1.0);
        assert_eq!(builder.advance(1.0), 0);
        assert_eq!(builder.advance(1.0), 9, "frames ending by 0.95 s settled");
        builder.push(0, 0.05, 3.0); // lands in settled frame 0
        let batch: TimeSeries = [(0.05, 1.0), (0.05, 3.0), (0.95, 1.0)]
            .into_iter()
            .collect();
        // Note the batch stream must accumulate in the builder's push order
        // within the frame for bit-identity; (1.0, 3.0) here.
        assert_eq!(
            builder.advance(1.0),
            0,
            "the revised frame is not unchanged"
        );
        assert_eq!(
            *builder.shared_frames(),
            FrameSeq::build(&[batch], 0.0, 1.0, 0.1)
        );
    }

    #[test]
    fn builder_ignores_samples_before_start() {
        let mut builder = FrameBuilder::new(1, None, 1.0, 0.1);
        builder.push(0, 0.5, 9.0);
        builder.push(0, 1.05, 2.0);
        let s: TimeSeries = [(0.5, 9.0), (1.05, 2.0)].into_iter().collect();
        builder.advance(1.1);
        assert_eq!(
            *builder.shared_frames(),
            FrameSeq::build(&[s], 1.0, 1.1, 0.1)
        );
    }

    #[test]
    fn builder_empty_build_spans_range() {
        let mut builder = FrameBuilder::new(2, None, 0.0, 0.1);
        builder.advance(0.55);
        let fs = builder.shared_frames();
        assert_eq!(fs.len(), 6);
        assert!(fs.frames().iter().all(|f| f.rms == 0.0 && f.samples == 0));
    }

    #[test]
    fn builder_settles_no_frame_past_the_sequence() {
        // At 1e23 s half an ulp of the time exceeds the frame length, so
        // frame ends stop advancing and every frame ends "by" the newest
        // sample. Settling must stop at the sequence's frame count.
        let mut builder = FrameBuilder::new(1, None, 1e23, 0.1);
        builder.push(0, 1e23, 1.0);
        assert_eq!(builder.advance(1e23), 0);
        assert!(builder.shared_frames().is_empty());
        assert_eq!(builder.advance(1e23), 0);
    }

    #[test]
    fn re_anchoring_or_a_held_handle_keeps_the_promise() {
        let mut builder = FrameBuilder::new(1, None, 0.0, 0.1);
        for k in 0..10 {
            builder.push(0, k as f64 * 0.1 + 0.05, 1.0);
        }
        builder.advance(0.95);
        // A handle held across an advance keeps its frames; the builder
        // copies before it writes.
        let held = builder.shared_frames();
        let before = held.as_ref().clone();
        builder.push(0, 0.97, 2.0);
        assert_eq!(builder.advance(0.97), 9);
        assert_eq!(*held, before);
        assert_ne!(*builder.shared_frames(), before);
        // A re-anchored builder reports nothing unchanged.
        builder.reset_anchor(0.5);
        builder.push(0, 0.55, 1.0);
        assert_eq!(builder.advance(0.55), 0);
        assert_eq!(builder.shared_frames().len(), 1);
    }
}
