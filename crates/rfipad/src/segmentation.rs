//! Stroke segmentation from continuous phase streams (§III-C1).
//!
//! Writers pause between strokes to reposition (the *adjustment interval*).
//! During a stroke every tag's suppressed phase swings; during an
//! adjustment the streams are quiet. RFIPad frames the streams (100 ms),
//! computes the multi-tag RMS per frame (Eq. 11), and flags windows whose
//! `std(rms(w))` exceeds a threshold (Eq. 12). Runs of active frames become
//! stroke spans.

use crate::config::RfipadConfig;
use sigproc::frames::{Frame, FrameSeq};
use sigproc::stats;

/// A detected stroke span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrokeSpan {
    /// Span start time (s).
    pub start: f64,
    /// Span end time (s).
    pub end: f64,
}

impl StrokeSpan {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Overlap duration with another span (0 if disjoint).
    pub fn overlap(&self, other: &StrokeSpan) -> f64 {
        (self.end.min(other.end) - self.start.max(other.start)).max(0.0)
    }
}

/// Per-frame segmentation diagnostics (the paper's Fig. 9 panels).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScore {
    /// Frame start time.
    pub time: f64,
    /// Multi-tag RMS of the frame (Eq. 11).
    pub rms: f64,
    /// `std(rms)` of the window centred on this frame (Eq. 12 left side).
    pub window_std: f64,
    /// Whether the frame is part of a stroke.
    pub active: bool,
}

/// Segmentation result: spans plus diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Segmentation {
    /// Detected stroke spans in time order.
    pub spans: Vec<StrokeSpan>,
    /// Per-frame scores (for inspection / figures).
    pub frames: Vec<FrameScore>,
    /// The activity threshold used.
    pub threshold: f64,
}

/// Shortest merged run of active frames kept as a stroke: 3 frames =
/// 0.3 s at the paper's frame length, just under the fastest plausible
/// stroke. Shorter bursts are discarded as noise.
pub const MIN_STROKE_FRAMES: usize = 3;

/// Bridge brief lulls: a hand changing direction mid-stroke can dip the
/// window variance for a frame or two, which must not split the stroke.
/// Real adjustment intervals are several frames long. Active runs at most
/// this many quiet frames apart merge.
const BRIDGE_FRAMES: usize = 2;

/// The Eq. 11–12 scorer behind every segmentation: per-frame scores and
/// the stroke spans they give, kept across calls so that scoring a frame
/// sequence that shares a prefix with the previous one recomputes only
/// what the changed frames reach.
///
/// [`Recognizer::segment`](crate::Recognizer::segment) scores from an
/// empty scorer; the online segmentation stage keeps one across frame
/// ticks, where each tick's
/// frames repeat the previous tick's settled prefix and differ only in the
/// live tail (or lose a prefix to a history trim, which moves every frame
/// to a new index). The caller
/// says how many leading frames are unchanged since the previous call
/// (`FrameBuilder::advance` counts them); let `same` be that count,
/// clamped to the frames held, under the same thresholds and frame
/// length. Then:
///
/// - a window std depends on the `2·half + 1` frames around it, so the
///   stds before `same − half` stand;
/// - erosion (and with it the raw activity flag) depends on the stds
///   around it, so both stand before `same − 2·half`;
/// - runs at most two quiet frames apart merge, so a run followed by
///   three raw-quiet frames can be neither extended nor bridged by
///   anything after them. Runs are re-merged, and the length filter
///   re-applied, from the last such point at or before `same − 2·half`.
///
/// A call therefore rescores only the frames a change reaches (and
/// re-merges the stroke in progress, if any). Its result is bit-identical
/// to scoring the same frames from empty for any count at or below the
/// true common prefix: every value it keeps was computed from the same
/// inputs by the same code.
#[derive(Debug, Clone)]
pub struct FrameScorer {
    /// Half-width of the centred Eq. 12 window, frames.
    half: usize,
    /// The variance threshold the stored scores were computed under.
    threshold: f64,
    /// The RMS-level threshold the stored scores were computed under.
    rms_threshold: f64,
    /// The frame length of the scored frames (span ends derive from it).
    frame_len: f64,
    /// Per frame: `std(rms)` of the window centred on it (Eq. 12).
    window_std: Vec<f64>,
    /// Per frame: active before bridging and the length filter (eroded
    /// window std or own RMS above its threshold).
    raw: Vec<bool>,
    /// Merged runs long enough to be strokes, `[start, end)` frame
    /// indices, in time order. A frame is active ([`FrameScore::active`])
    /// when it is raw-active inside one.
    runs: Vec<(usize, usize)>,
    /// The stroke span of each run.
    spans: Vec<StrokeSpan>,
}

impl FrameScorer {
    /// An empty scorer for `config`'s window.
    pub fn new(config: &RfipadConfig) -> Self {
        Self {
            half: config.window_frames / 2,
            threshold: f64::NAN,
            rms_threshold: f64::NAN,
            frame_len: f64::NAN,
            window_std: Vec::new(),
            raw: Vec::new(),
            runs: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Forgets every stored frame, keeping the allocations: the next
    /// [`score`](Self::score) starts from empty.
    pub fn clear(&mut self) {
        self.window_std.clear();
        self.raw.clear();
        self.runs.clear();
        self.spans.clear();
    }

    /// Scores `frame_seq`, whose first `unchanged` frames equal those of
    /// the previous call's sequence: a frame is raw-active when every
    /// window containing it exceeds `threshold` (Eq. 12 with erosion) or
    /// its own RMS exceeds `rms_threshold`; raw runs at most two quiet
    /// frames apart merge, and merged runs shorter than the minimum stroke
    /// length are dropped. Reuses whatever the previous call left valid;
    /// `unchanged` is clamped to the frames held, so a cleared scorer
    /// scores from empty.
    pub fn score(
        &mut self,
        frame_seq: &FrameSeq,
        unchanged: usize,
        threshold: f64,
        rms_threshold: f64,
    ) {
        let frames = frame_seq.frames();
        let n = frames.len();
        let half = self.half;
        // Every frame of a sequence shares one length, and every stored
        // value derives from the thresholds: a change to either starts
        // from empty.
        let frame_len = frames.first().map_or(self.frame_len, |f| f.duration);
        let same = if threshold.to_bits() == self.threshold.to_bits()
            && rms_threshold.to_bits() == self.rms_threshold.to_bits()
            && frame_len.to_bits() == self.frame_len.to_bits()
        {
            unchanged.min(self.raw.len()).min(n)
        } else {
            0
        };
        self.threshold = threshold;
        self.rms_threshold = rms_threshold;
        self.frame_len = frame_len;
        let std_from = same.saturating_sub(half);
        let raw_from = same.saturating_sub(2 * half);
        let restart = restart_point(&self.raw[..raw_from]);

        self.window_std.truncate(std_from);
        self.raw.truncate(raw_from);
        let kept = self.runs.partition_point(|&(s, _)| s < restart);
        self.runs.truncate(kept);
        self.spans.truncate(kept);

        // Per-frame score: std(rms) of the window centred on the frame
        // (shrinking at the edges).
        for i in std_from..n {
            let (lo, hi) = (i.saturating_sub(half), (i + half + 1).min(n));
            let rms = frames[lo..hi].iter().map(|f| f.rms);
            self.window_std.push(stats::variance_of(rms).sqrt());
        }
        // A window overlapping a stroke edge is active even though most of
        // its frames are quiet; to keep spans tight (and isolated one-frame
        // twitches from smearing into stroke-length spans) a frame counts
        // as active only when *every* window containing it is active —
        // erosion matching the earlier dilation.
        for (i, frame) in frames.iter().enumerate().skip(raw_from) {
            let (lo, hi) = (i.saturating_sub(half), (i + half + 1).min(n));
            let eroded = self.window_std[lo..hi]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            self.raw
                .push(eroded > threshold || frame.rms > rms_threshold);
        }

        // Merge runs of raw-active frames from the restart point, bridging
        // brief lulls, and keep the merged runs long enough to be strokes.
        let mut merged: Option<(usize, usize)> = None;
        let mut i = restart;
        while i < n {
            if !self.raw[i] {
                i += 1;
                continue;
            }
            let s = i;
            while i < n && self.raw[i] {
                i += 1;
            }
            match &mut merged {
                Some(run) if s - run.1 <= BRIDGE_FRAMES => run.1 = i,
                _ => {
                    if let Some(run) = merged.replace((s, i)) {
                        self.close_run(run, frames);
                    }
                }
            }
        }
        if let Some(run) = merged {
            self.close_run(run, frames);
        }
    }

    /// Keeps a merged run long enough to be a stroke, with its span.
    fn close_run(&mut self, (s, e): (usize, usize), frames: &[Frame]) {
        if e - s >= MIN_STROKE_FRAMES {
            self.runs.push((s, e));
            self.spans.push(StrokeSpan {
                start: frames[s].start,
                end: frames[e - 1].end(),
            });
        }
    }

    /// The stroke spans of the latest scored frames, in time order.
    pub fn spans(&self) -> &[StrokeSpan] {
        &self.spans
    }

    /// The latest result as a [`Segmentation`] of `frame_seq`, the
    /// frames of the latest [`score`](Self::score): its spans plus a
    /// [`FrameScore`] per frame. Frames of runs too short to be strokes
    /// are inactive, for honesty in diagnostics.
    pub fn into_segmentation(self, frame_seq: &FrameSeq) -> Segmentation {
        let mut frames: Vec<FrameScore> = frame_seq
            .frames()
            .iter()
            .zip(&self.window_std)
            .map(|(frame, &window_std)| FrameScore {
                time: frame.start,
                rms: frame.rms,
                window_std,
                active: false,
            })
            .collect();
        for &(s, e) in &self.runs {
            for (score, &raw) in frames[s..e].iter_mut().zip(&self.raw[s..e]) {
                score.active = raw;
            }
        }
        Segmentation {
            spans: self.spans,
            frames,
            threshold: self.threshold,
        }
    }
}

/// The last frame index at or before `raw.len()` that no earlier run can
/// reach: one preceded by `BRIDGE_FRAMES + 1` raw-quiet frames, or only by
/// quiet frames.
fn restart_point(raw: &[bool]) -> usize {
    let mut p = raw.len();
    loop {
        let quiet = raw[..p]
            .iter()
            .rev()
            .take(BRIDGE_FRAMES + 1)
            .take_while(|&&active| !active)
            .count();
        if quiet == p.min(BRIDGE_FRAMES + 1) {
            return p;
        }
        // The frame before the quiet stretch is active: no point after it
        // and up to `p` has enough quiet frames before it.
        p -= quiet + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ArrayLayout;
    use crate::streams::TagStreams;
    use rfid_gen2::report::{TagId, TagReport};
    use std::f64::consts::TAU;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(1, 3, vec![TagId(0), TagId(1), TagId(2)])
    }

    fn obs(tag: TagId, time: f64, phase: f64) -> TagReport {
        TagReport::synthetic(tag, time, phase.rem_euclid(TAU), -45.0)
    }

    /// Streams quiet except for phase wiggles during [2, 3.5) and [5, 6).
    fn two_stroke_streams() -> TagStreams {
        let mut observations = Vec::new();
        for step in 0..400 {
            let t = step as f64 * 0.02; // 8 s at 50 Hz
            let active = (2.0..3.5).contains(&t) || (5.0..6.0).contains(&t);
            for (i, base) in [(0u64, 1.0), (1, 3.0), (2, 5.0)] {
                let wiggle = if active {
                    0.8 * ((t * 22.0) + i as f64).sin()
                } else {
                    0.01 * ((t * 3.0) + i as f64).sin()
                };
                observations.push(obs(TagId(i), t + i as f64 * 0.001, base + wiggle));
            }
        }
        TagStreams::build(&layout(), None, &observations)
    }

    /// Scores `streams`' unfloored frames from an empty scorer with the
    /// variance test only (the paper's literal Eq. 12).
    fn segment(streams: &TagStreams, threshold: f64) -> Segmentation {
        let config = RfipadConfig::default();
        let frames = match (streams.start(), streams.end()) {
            (Some(start), Some(end)) => {
                FrameSeq::build(streams.phases(), start, end, config.frame_len_s)
            }
            _ => FrameSeq::default(),
        };
        let mut scorer = FrameScorer::new(&config);
        scorer.score(&frames, 0, threshold, f64::INFINITY);
        scorer.into_segmentation(&frames)
    }

    #[test]
    fn two_strokes_found() {
        let streams = two_stroke_streams();
        let seg = segment(&streams, 0.1);
        assert_eq!(seg.spans.len(), 2, "spans {:?}", seg.spans);
        let s0 = seg.spans[0];
        let s1 = seg.spans[1];
        assert!((s0.start - 2.0).abs() < 0.4, "s0 {s0:?}");
        assert!((s0.end - 3.5).abs() < 0.4);
        assert!((s1.start - 5.0).abs() < 0.4, "s1 {s1:?}");
        assert!((s1.end - 6.0).abs() < 0.4);
    }

    #[test]
    fn quiet_streams_have_no_spans() {
        let mut observations = Vec::new();
        for step in 0..200 {
            let t = step as f64 * 0.02;
            for i in 0..3u64 {
                observations.push(obs(TagId(i), t + i as f64 * 0.001, 1.0 + i as f64));
            }
        }
        let streams = TagStreams::build(&layout(), None, &observations);
        let seg = segment(&streams, 0.1);
        assert!(seg.spans.is_empty(), "{:?}", seg.spans);
    }

    #[test]
    fn short_bursts_dropped() {
        // One 0.1 s twitch (a single frame) must not become a stroke.
        let mut observations = Vec::new();
        for step in 0..300 {
            let t = step as f64 * 0.02;
            let active = (2.0..2.1).contains(&t);
            for i in 0..3u64 {
                let wiggle = if active { 1.0 * (t * 60.0).sin() } else { 0.0 };
                observations.push(obs(TagId(i), t + i as f64 * 0.001, 1.0 + i as f64 + wiggle));
            }
        }
        let streams = TagStreams::build(&layout(), None, &observations);
        let seg = segment(&streams, 0.1);
        assert!(seg.spans.is_empty(), "{:?}", seg.spans);
    }

    #[test]
    fn frame_scores_cover_run_and_flag_activity() {
        let streams = two_stroke_streams();
        let seg = segment(&streams, 0.1);
        assert!(!seg.frames.is_empty());
        // Scores rise during strokes.
        let active_std: f64 = seg
            .frames
            .iter()
            .filter(|f| (2.2..3.2).contains(&f.time))
            .map(|f| f.window_std)
            .sum::<f64>();
        let quiet_std: f64 = seg
            .frames
            .iter()
            .filter(|f| (0.5..1.5).contains(&f.time))
            .map(|f| f.window_std)
            .sum::<f64>();
        assert!(active_std > 5.0 * quiet_std);
    }

    #[test]
    fn empty_streams_give_empty_segmentation() {
        let streams = TagStreams::default();
        let seg = segment(&streams, 0.1);
        assert!(seg.spans.is_empty());
        assert!(seg.frames.is_empty());
    }

    #[test]
    fn span_overlap_math() {
        let a = StrokeSpan {
            start: 1.0,
            end: 2.0,
        };
        let b = StrokeSpan {
            start: 1.5,
            end: 3.0,
        };
        let c = StrokeSpan {
            start: 2.5,
            end: 3.0,
        };
        assert!((a.overlap(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.overlap(&c), 0.0);
        assert!((a.duration() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_too_high_misses_strokes() {
        let streams = two_stroke_streams();
        let seg = segment(&streams, 1e6);
        assert!(seg.spans.is_empty());
    }

    /// A frame sequence of `len`-second frames from `anchor`, one per
    /// entry of `rms`, each frame's RMS exactly its entry (one stream, one
    /// sample at the frame's midpoint).
    fn frames_with_rms(anchor: f64, len: f64, rms: &[f64]) -> FrameSeq {
        if rms.is_empty() {
            return FrameSeq::default();
        }
        let series: sigproc::series::TimeSeries = rms
            .iter()
            .enumerate()
            .map(|(k, &v)| (anchor + (k as f64 + 0.5) * len, v))
            .collect();
        let end = anchor + (rms.len() as f64 - 0.5) * len;
        let seq = FrameSeq::build(&[series], anchor, end, len);
        assert_eq!(seq.len(), rms.len());
        seq
    }

    /// Every stored value of a scorer, as bits, and every value of its
    /// result over `frames`, the frames it scored last.
    fn scorer_bits(s: &FrameScorer, frames: &FrameSeq) -> Vec<u64> {
        let mut bits = vec![s.threshold.to_bits(), s.rms_threshold.to_bits()];
        bits.push(s.window_std.len() as u64);
        bits.extend(s.window_std.iter().map(|v| v.to_bits()));
        bits.push(s.raw.len() as u64);
        bits.extend(s.raw.iter().map(|&a| u64::from(a)));
        for &(start, end) in &s.runs {
            bits.extend([start as u64, end as u64]);
        }
        for span in &s.spans {
            bits.extend([span.start.to_bits(), span.end.to_bits()]);
        }
        // The public result, every field of every frame score included.
        let seg = s.clone().into_segmentation(frames);
        bits.push(seg.threshold.to_bits());
        for f in &seg.frames {
            bits.extend([
                f.time.to_bits(),
                f.rms.to_bits(),
                f.window_std.to_bits(),
                u64::from(f.active),
            ]);
        }
        for span in &seg.spans {
            bits.extend([span.start.to_bits(), span.end.to_bits()]);
        }
        bits
    }

    /// Frame RMS levels: quiet, moderate, loud. Against the thresholds
    /// below, loud frames are active on their own and mixed windows by
    /// their variance.
    const LEVELS: [f64; 3] = [0.05, 1.0, 3.0];
    /// (variance threshold, RMS-level threshold) pairs a run switches
    /// between.
    const THRESHOLDS: [(f64, f64); 3] = [(0.5, 2.0), (0.3, f64::INFINITY), (1.0, 1.5)];

    #[test]
    fn restart_point_needs_enough_quiet_frames() {
        let (q, a) = (false, true);
        assert_eq!(restart_point(&[]), 0);
        assert_eq!(restart_point(&[q, q]), 2);
        assert_eq!(restart_point(&[a, q, q]), 0);
        assert_eq!(restart_point(&[a, q, q, q]), 4);
        assert_eq!(restart_point(&[a, q, q, q, a, q]), 4);
        assert_eq!(restart_point(&[q, q, q, a, a, q, q]), 3);
    }

    #[test]
    fn streaming_scorer_bridges_and_filters_like_a_fresh_one() {
        // Quiet, a run, a two-frame lull (bridged), a run, a long quiet
        // stretch, a two-frame blip (too short), quiet, then a live tail
        // revised from quiet to loud and back.
        let q = LEVELS[0];
        let l = LEVELS[2];
        let mut rms = vec![q, q, q, q, l, l, l, q, q, l, l, q, q, q, q, q, q, l, l];
        rms.extend([q; 8]);
        let config = RfipadConfig::default();
        let (t, r) = THRESHOLDS[0];
        let mut streaming = FrameScorer::new(&config);
        let mut frames = FrameSeq::default();
        for n in 1..=rms.len() {
            // Every call below revises at most the last of its n frames.
            for tail in [l, q] {
                let mut ticked = rms[..n].to_vec();
                *ticked.last_mut().expect("n >= 1") = tail;
                frames = frames_with_rms(0.0, 0.1, &ticked);
                streaming.score(&frames, n - 1, t, r);
                let mut fresh = FrameScorer::new(&config);
                fresh.score(&frames, 0, t, r);
                assert_eq!(
                    scorer_bits(&streaming, &frames),
                    scorer_bits(&fresh, &frames),
                    "tick {n}"
                );
            }
            frames = frames_with_rms(0.0, 0.1, &rms[..n]);
            streaming.score(&frames, n - 1, t, r);
        }
        let seg = streaming.into_segmentation(&frames);
        // The lull is bridged into one span; the blip is dropped.
        assert_eq!(seg.spans.len(), 1, "{:?}", seg.spans);
        assert!(seg.frames[17..19].iter().all(|f| !f.active));
    }

    proptest::proptest! {
        #[test]
        fn streaming_scorer_equals_scoring_from_empty(
            window in 1usize..8,
            ops in proptest::collection::vec(
                (0u8..8, proptest::collection::vec(0usize..3, 1..9), 0.0f64..1.0),
                1..40,
            ),
        ) {
            let config = RfipadConfig {
                window_frames: window,
                ..RfipadConfig::default()
            };
            let len = config.frame_len_s;
            let mut anchor = 0.0;
            let mut rms: Vec<f64> = Vec::new();
            let mut thresholds = THRESHOLDS[0];
            let mut streaming = FrameScorer::new(&config);
            for (tick, (op, levels, at)) in ops.iter().enumerate() {
                let at_frame = (at * rms.len() as f64) as usize;
                // The leading frames the op leaves unchanged, the count
                // framing reports for it.
                let unchanged = match op {
                    // Revise the live tail.
                    0 => {
                        if let Some(last) = rms.last_mut() {
                            *last = LEVELS[levels[0]];
                        }
                        rms.len().saturating_sub(1)
                    }
                    // Revise every frame from a random one on.
                    1 => {
                        for (v, &l) in rms[at_frame..].iter_mut().zip(levels.iter().cycle()) {
                            *v = LEVELS[l];
                        }
                        at_frame
                    }
                    // Drop a prefix: every frame moves to a new index, as
                    // after a history trim.
                    2 => {
                        rms.drain(..at_frame);
                        anchor += at_frame as f64 * len;
                        0
                    }
                    3 => {
                        thresholds = THRESHOLDS[levels[0]];
                        rms.len()
                    }
                    // Append frames.
                    _ => {
                        let old = rms.len();
                        rms.extend(levels.iter().map(|&l| LEVELS[l]));
                        old
                    }
                };
                let frames = frames_with_rms(anchor, len, &rms);
                streaming.score(&frames, unchanged, thresholds.0, thresholds.1);
                let mut fresh = FrameScorer::new(&config);
                fresh.score(&frames, 0, thresholds.0, thresholds.1);
                proptest::prop_assert_eq!(
                    scorer_bits(&streaming, &frames),
                    scorer_bits(&fresh, &frames),
                    "tick {} op {}",
                    tick,
                    op
                );
            }
        }
    }
}
