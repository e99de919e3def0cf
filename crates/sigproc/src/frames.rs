//! Fixed-duration framing of multi-stream signals.
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
//! (Eq. 12) to decide whether a stroke is in progress. This module cuts the
//! frames; callers take each window's std with [`stats::variance_of`].

use crate::series::TimeSeries;
use crate::stats;
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
/// Every frame lies on one grid, `start + k·frame_len`, for as long as the
/// builder is not re-anchored. A cut of a time prefix off the history is
/// made in place: [`drop_before`](Self::drop_before) drops the frames no
/// remaining sample can fall in, and [`refill`](Self::refill) rebuilds
/// only the accumulators the removed samples shared with remaining ones,
/// whose frames the next advance recomputes. The sequence then equals a
/// batch build on the same grid origin over
/// the remaining samples, less the frames before the first remaining
/// sample's frame.
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
    /// Grid index of the first frame held: 0 until
    /// [`drop_before`](Self::drop_before) drops a prefix.
    first: usize,
    /// Per-frame, per-stream running sum of squared sample values, laid out
    /// frame-major from frame `first` (`(k − first) * n_streams +
    /// stream`). A flat structure-of-arrays instead of a `Vec` of
    /// per-frame structs so that opening a new frame is an amortized
    /// `resize`, not two fresh allocations.
    acc_sum_sq: Vec<f64>,
    /// Per-frame, per-stream sample counts, same layout as `acc_sum_sq`.
    acc_count: Vec<usize>,
    /// The sequence of the latest [`advance`](Self::advance): the settled
    /// prefix followed by the live tail, from frame `first`.
    frames: Arc<FrameSeq>,
    /// How many leading frames of `frames` are settled and untouched by
    /// any push since.
    settled: usize,
    /// How many leading frames of `frames` the next advance may report
    /// unchanged, at most `settled`: 0 once a cut moved or revised them.
    unchanged: usize,
    /// How many leading frames of `frames` hold accumulators a
    /// [`refill`](Self::refill) revised since the previous advance, which
    /// recomputes the settled ones among them in place.
    revised: usize,
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
            first: 0,
            acc_sum_sq: Vec::new(),
            acc_count: Vec::new(),
            frames: Arc::default(),
            settled: 0,
            unchanged: 0,
            revised: 0,
            max_time: f64::NEG_INFINITY,
        }
    }

    /// Rewinds the builder to an empty state on a new grid origin `start`,
    /// keeping the stream count, floors, frame length, and — crucially —
    /// the accumulator and frame allocations. The stage graph re-seats its
    /// builder through this whenever its stream cache holds no sample, on
    /// the stream's one grid origin, followed by a
    /// [`drop_before`](Self::drop_before) the first sample, so frames start
    /// at that sample's frame. The next [`advance`](Self::advance) reports
    /// no frame unchanged.
    pub fn reset_anchor(&mut self, start: f64) {
        self.start = start;
        self.first = 0;
        self.acc_sum_sq.clear();
        self.acc_count.clear();
        Arc::make_mut(&mut self.frames).frames.clear();
        self.settled = 0;
        self.unchanged = 0;
        self.revised = 0;
        self.max_time = f64::NEG_INFINITY;
    }

    /// The grid origin passed to [`new`](Self::new) or
    /// [`reset_anchor`](Self::reset_anchor).
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

    /// Start time of grid frame `k`, with the exact rounding the batch
    /// build uses per frame.
    fn frame_start(&self, k: usize) -> f64 {
        self.start + k as f64 * self.frame_len
    }

    /// The lowest held frame whose end lies after `t` — the first frame a
    /// sample at `t` can fall in — and the division estimate it was walked
    /// down from.
    fn frame_after(&self, t: f64) -> (usize, usize) {
        let est = ((t - self.start) / self.frame_len) as usize;
        let mut k = est.max(self.first);
        while k > self.first && self.frame_start(k - 1) + self.frame_len > t {
            k -= 1;
        }
        (k, est)
    }

    /// Appends one sample of stream `stream` at time `t`. Samples before
    /// the first frame held (before `start`, unless a cut dropped frames)
    /// are ignored, exactly as they would fall outside every frame of the
    /// batch build.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn push(&mut self, stream: usize, t: f64, v: f64) {
        assert!(stream < self.n_streams, "stream index out of range");
        if t < self.frame_start(self.first) {
            return;
        }
        if let Some(first) = self.accumulate(stream, t, v, usize::MAX) {
            self.settled = self.settled.min(first);
        }
        if t > self.max_time {
            self.max_time = t;
        }
    }

    /// Adds sample `(t, v)` of stream `stream` to every held frame below
    /// grid index `end` whose range contains `t`, growing the accumulators
    /// as needed. Returns the first frame it touched, relative to the
    /// first frame held.
    fn accumulate(&mut self, stream: usize, t: f64, v: f64, end: usize) -> Option<usize> {
        // The batch build tests membership per frame k as
        // `f_start <= t < f_start + frame_len`, with `f_start = start +
        // k * frame_len` rounded independently per frame — so consecutive
        // frames can overlap or leave a gap of an ulp at a boundary, and a
        // sample may fall in zero, one, or *two* frames. Replicate that
        // exactly: from the division estimate, walk down to the first frame
        // whose end lies after t, then accumulate into every frame whose
        // half-open range contains t.
        let (from, est) = self.frame_after(t);
        let mut first_touched = None;
        // In non-degenerate float ranges membership ends within a frame or
        // two of the estimate; the bound only guards against a frame_len
        // below the ulp of the timestamps, where frame starts stop
        // advancing.
        for k in from..est.saturating_add(3).min(end) {
            let f_start = self.frame_start(k);
            if f_start > t {
                break;
            }
            if t < f_start + self.frame_len {
                let j = k - self.first;
                first_touched.get_or_insert(j);
                let needed = (j + 1) * self.n_streams;
                if self.acc_count.len() < needed {
                    self.acc_sum_sq.resize(needed, 0.0);
                    self.acc_count.resize(needed, 0);
                }
                let idx = j * self.n_streams + stream;
                self.acc_sum_sq[idx] += v * v;
                self.acc_count[idx] += 1;
            }
        }
        first_touched
    }

    /// Emits grid frame `k` from the accumulators, mirroring the batch
    /// build's stream-order walk (empty streams contribute nothing).
    fn compute_frame(&self, k: usize) -> Frame {
        let mut rms_sum = 0.0;
        let mut samples = 0;
        let base = (k - self.first) * self.n_streams;
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
            start: self.frame_start(k),
            duration: self.frame_len,
            rms: rms_sum,
            samples,
        }
    }

    /// Brings the frame sequence up to `[start, end)`, bit-identical to
    /// [`FrameSeq::build_with_floors`] over the same samples (from the
    /// first frame held), and returns how many leading frames are
    /// unchanged since the previous call: the settled frames no push or
    /// cut has touched since. May be called repeatedly with a growing
    /// `end` as more samples arrive. A handle from
    /// [`shared_frames`](Self::shared_frames) still held makes this copy
    /// the sequence first.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn advance(&mut self, end: f64) -> usize {
        assert!(end >= self.start, "frame range end before start");
        let count =
            (((end - self.start) / self.frame_len).ceil() as usize).saturating_sub(self.first);
        let unchanged = self.unchanged.min(self.settled).min(count);
        // Detach the frame vector so frames can be computed from `self`
        // while it grows; under a sole handle nothing is copied.
        let mut frames = std::mem::take(&mut Arc::make_mut(&mut self.frames).frames);
        let kept = self.settled.min(count);
        frames.truncate(kept);
        let revised = std::mem::take(&mut self.revised).min(kept);
        for (j, frame) in frames[..revised].iter_mut().enumerate() {
            *frame = self.compute_frame(self.first + j);
        }
        // Settle frames that can no longer change: every future sample
        // arrives at `t >= max_time` in a monotone feed, so a frame ending
        // at or before `max_time` is settled (membership needs
        // `t < f_start + frame_len`, the same rounded expression as here).
        // Only frames of this sequence settle: once half an ulp of the
        // timestamps exceeds the frame length, frame ends stop advancing
        // and every later frame would pass the test.
        while frames.len() < count
            && self.frame_start(self.first + frames.len()) + self.frame_len <= self.max_time
        {
            frames.push(self.compute_frame(self.first + frames.len()));
        }
        frames_built_counter().add((revised + frames.len() - kept) as u64);
        self.settled = frames.len();
        self.unchanged = self.settled;
        frames.extend((self.settled..count).map(|j| self.compute_frame(self.first + j)));
        Arc::make_mut(&mut self.frames).frames = frames;
        unchanged
    }

    /// Drops every held frame that ends at or before `t`: the frames no
    /// sample at or after `t` can fall in. Later samples before the first
    /// frame kept are ignored, as samples before `start` are. The frames
    /// kept keep their values — [`refill`](Self::refill) the streams whose
    /// removed samples shared a frame with remaining ones — but the next
    /// [`advance`](Self::advance) reports none of them unchanged: they
    /// moved to the front of the sequence.
    pub fn drop_before(&mut self, t: f64) {
        let (k0, _) = self.frame_after(t);
        let dropped = k0 - self.first;
        if dropped == 0 {
            return;
        }
        let cells = dropped
            .saturating_mul(self.n_streams)
            .min(self.acc_count.len());
        self.acc_sum_sq.drain(..cells);
        self.acc_count.drain(..cells);
        let frames = &mut Arc::make_mut(&mut self.frames).frames;
        frames.drain(..dropped.min(frames.len()));
        self.settled = self.settled.saturating_sub(dropped);
        self.revised = self.revised.saturating_sub(dropped);
        self.unchanged = 0;
        self.first = k0;
    }

    /// Rebuilds stream `stream`'s share of every held frame that starts at
    /// or before `until` from `samples`, the stream's samples in time order
    /// (those before the first frame held are ignored). After a cut removed
    /// samples at or before `until` from the stream — or rewrote the values
    /// of those it kept, with `until` infinite — the builder then holds
    /// what one fed only the remaining samples would. The next
    /// [`advance`](Self::advance) recomputes the settled frames among the
    /// refilled ones in place, once however many streams were refilled,
    /// and reports no frame unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn refill(&mut self, stream: usize, samples: &TimeSeries, until: f64) {
        assert!(stream < self.n_streams, "stream index out of range");
        let held = self.acc_count.len() / self.n_streams;
        let mut end = 0;
        while end < held && self.frame_start(self.first + end) <= until {
            end += 1;
        }
        if end == 0 {
            return;
        }
        for j in 0..end {
            self.acc_sum_sq[j * self.n_streams + stream] = 0.0;
            self.acc_count[j * self.n_streams + stream] = 0;
        }
        let limit = self.first + end;
        // Frame ends never decrease along the grid, so no sample at or
        // past the last refilled frame's end belongs to a refilled frame.
        let last_end = self.frame_start(limit - 1) + self.frame_len;
        let first_start = self.frame_start(self.first);
        for (t, v) in samples.iter().take_while(|&(t, _)| t < last_end) {
            if t >= first_start {
                self.accumulate(stream, t, v, limit);
            }
        }
        self.revised = self.revised.max(end);
        self.unchanged = 0;
    }

    /// A shared handle to the frame sequence as of the latest
    /// [`advance`](Self::advance). Holding it across the next advance is
    /// allowed but makes that advance copy the sequence; drop the handle
    /// when done with it.
    pub fn shared_frames(&self) -> Arc<FrameSeq> {
        Arc::clone(&self.frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_stream(value: f64, n: usize, dt: f64) -> TimeSeries {
        (0..n).map(|i| (i as f64 * dt, value)).collect()
    }

    /// `std(rms(w))` of each window of `size` frames (Eq. 12).
    fn window_stds(fs: &FrameSeq, size: usize) -> impl Iterator<Item = f64> + '_ {
        fs.frames()
            .chunks(size)
            .map(|w| stats::variance_of(w.iter().map(|f| f.rms)).sqrt())
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
    fn constant_window_is_inactive() {
        let s = constant_stream(5.0, 100, 0.01);
        let fs = FrameSeq::build(&[s], 0.0, 1.0, 0.1);
        assert!(window_stds(&fs, 5).all(|std| std < 1e-9));
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
        assert!(window_stds(&fs, 5).any(|std| std > 0.5));
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
    fn a_cut_keeps_the_grid_and_drops_a_prefix() {
        // Two streams over 1 s, then a cut at 0.43 s: frames 0–3 go, frame
        // 4 loses its samples before 0.43 s, and the rest stand.
        let stream = |phase: f64| -> TimeSeries {
            (0..100)
                .map(|i| (i as f64 * 0.01, (i as f64 * phase).sin()))
                .collect()
        };
        let streams = [stream(0.37), stream(0.53)];
        let mut builder = FrameBuilder::new(2, Some(vec![0.1, 0.2]), 0.0, 0.1);
        push_interleaved(&mut builder, &streams);
        builder.advance(0.99);
        let kept: Vec<TimeSeries> = streams
            .iter()
            .map(|s| s.iter().filter(|&(t, _)| t >= 0.43).collect())
            .collect();
        builder.drop_before(0.43);
        for (i, s) in kept.iter().enumerate() {
            builder.refill(i, s, 0.42);
        }
        assert_eq!(builder.advance(0.99), 0, "the frames moved");
        let batch = FrameSeq::build_with_floors(&kept, Some(&[0.1, 0.2]), 0.0, 0.99, 0.1);
        assert_eq!(builder.shared_frames().frames(), &batch.frames()[4..]);
        // Later pushes land on the same grid.
        builder.push(0, 1.05, 3.0);
        builder.advance(1.05);
        let last = *builder.shared_frames().frames().last().unwrap();
        assert_eq!(last.start, 10.0 * 0.1);
        assert_eq!(last.samples, 1);
    }

    #[test]
    fn refilling_a_rewritten_stream_revises_every_frame_once() {
        let s: TimeSeries = (0..50).map(|i| (i as f64 * 0.02, 1.0)).collect();
        let mut builder = FrameBuilder::new(1, None, 0.0, 0.1);
        push_interleaved(&mut builder, std::slice::from_ref(&s));
        builder.advance(0.98);
        let rewritten: TimeSeries = s.iter().map(|(t, v)| (t, v + 2.0)).collect();
        builder.refill(0, &rewritten, f64::INFINITY);
        assert_eq!(builder.advance(0.98), 0);
        assert_eq!(
            *builder.shared_frames(),
            FrameSeq::build(&[rewritten], 0.0, 0.98, 0.1)
        );
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
