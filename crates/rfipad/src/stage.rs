//! The online recognition engine (§V-D) as a typed stage graph.
//!
//! RFIPad reacts to hand motions as they happen: tag reports stream in, and
//! as soon as a stroke's end is confirmed by a short silence the stroke is
//! recognized and reported; when the writer stays idle long enough the
//! buffered strokes are composed into a letter. Response time — the gap
//! between a motion ending and its report — is tracked per
//! [`PipelineEvent`], matching the paper's Fig. 24 evaluation.
//!
//! The cascade has five distinct steps — buffering and incremental
//! framing, RMS segmentation, motion classification, letter assembly, and
//! grammar deduction. This module reifies each step as a [`Stage`] with a
//! typed input and output, and composes them with a [`StageGraph`] that
//! owns ordering, the [`OutOfOrderPolicy`], and per-stage instrumentation
//! (the `rfipad_stage_push_seconds{stage=...}` histograms). The graph is
//! the one streaming recognizer: callers drive it directly, or hand it to
//! an [`crate::engine::Engine`] session to run on a worker pool.
//!
//! Splitting the cascade buys two things a monolithic recognizer could
//! not offer:
//!
//! * **Checkpoint/restore.** Every stage can [`Stage::snapshot`] its
//!   mutable state into a JSON [`StageState`];
//!   [`StageGraph::checkpoint`] bundles them into a
//!   [`PipelineCheckpoint`] that [`StageGraph::restore_checkpoint`]
//!   replays into a freshly built graph. A restored graph produces the
//!   same remaining events, bit for bit, as the uninterrupted run —
//!   the property [`crate::engine::Engine::restore_session`] uses to
//!   migrate evicted sessions between processes.
//! * **Direct drive.** Batch-oriented callers (the engine workers,
//!   `multipad`, the experiment trials) consume the graph directly
//!   instead of private framing/segmentation glue.
//!
//! Floats in checkpoints are persisted as IEEE-754 bit patterns
//! (`f64::to_bits`), never decimal, so a snapshot/restore round trip is
//! exact. Checkpoints are written with `format!` and read with the strict
//! `obs::json` reader; malformed JSON, unknown or missing fields, foreign
//! versions, and impossible stage state are rejected with
//! [`RfipadError::Checkpoint`].

use crate::error::RfipadError;
use crate::recognizer::{RecognizedStroke, Recognizer};
use crate::segmentation::StrokeSpan;
use crate::streams::{TagStreams, TagStreamsBuilder};
use hand_kinematics::stroke::{Stroke, StrokeShape};
use obs::json::{self, JsonError, Value};
use rfid_gen2::epc::Epc96;
use rfid_gen2::report::{TagId, TagReport};
use serde::{Deserialize, Serialize};
use sigproc::frames::{FrameBuilder, FrameSeq};
use sigproc::grid::BinaryGrid;
use std::sync::Arc;
use std::time::Instant;

/// An event emitted by a [`StageGraph`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PipelineEvent {
    /// A stroke completed and was recognized.
    StrokeDetected {
        /// The recognized stroke.
        stroke: RecognizedStroke,
        /// Wall-clock compute time spent producing this report, seconds
        /// (the paper's response-time metric).
        response_time_s: f64,
        /// Simulated-time delay between the stroke ending and the decision
        /// becoming possible (silence confirmation).
        decision_delay_s: f64,
    },
    /// An idle gap closed a letter.
    LetterRecognized {
        /// The deduced letter (`None` if the stroke sequence matches no
        /// grammar entry).
        letter: Option<char>,
        /// The strokes composed.
        strokes: Vec<RecognizedStroke>,
        /// Wall-clock compute time for the deduction, seconds.
        response_time_s: f64,
    },
}

/// What [`StageGraph::push`] does with a report whose timestamp is older
/// than one already consumed. A single reader stream is in time order, but
/// merging several antennas or sources can interleave slightly stale
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum OutOfOrderPolicy {
    /// Clamp the stale timestamp forward to the newest time seen, keeping
    /// the report's signal content (the default: a few milliseconds of
    /// skew never matters to 100 ms frames).
    #[default]
    Clamp,
    /// Drop the stale report entirely.
    Drop,
}

/// Upper bound on how much history the framing stage keeps (seconds). A
/// kiosk runs for days; without a bound, a long quiet spell would grow
/// the buffer without limit. The bound comfortably exceeds any letter's
/// duration plus the letter gap.
pub(crate) const MAX_BUFFER_S: f64 = 30.0;

/// One step of the online recognition cascade.
///
/// A stage consumes typed inputs, appends typed outputs, and can
/// serialize its mutable state for session migration. Stages are wired
/// together by a [`StageGraph`], which also times every push into the
/// `rfipad_stage_push_seconds{stage=...}` histogram family.
pub trait Stage {
    /// The input consumed by [`Stage::push`].
    type In;
    /// The output appended by [`Stage::push`] and [`Stage::flush`].
    type Out;

    /// Stable stage name, used as the metric label and to address the
    /// stage's [`StageState`] inside a [`PipelineCheckpoint`].
    fn name(&self) -> &'static str;

    /// Consumes one input, appending any outputs it triggers.
    fn push(&mut self, input: Self::In, out: &mut Vec<Self::Out>);

    /// Flushes end-of-input state (most stages are driven entirely by
    /// their inputs and have nothing to flush).
    fn flush(&mut self, out: &mut Vec<Self::Out>) {
        let _ = out;
    }

    /// Serializes the stage's mutable state.
    fn snapshot(&self) -> StageState;

    /// Restores state captured by [`Stage::snapshot`] on an identically
    /// configured stage.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::Checkpoint`] if the state belongs to a
    /// different stage, fails to parse, or fails its integrity checks.
    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError>;
}

/// A serialized stage snapshot: the owning stage's name plus its state
/// as a JSON object. [`PipelineCheckpoint::from_json`] hands each stage
/// the exact bytes its snapshot wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct StageState {
    stage: String,
    state: String,
}

impl StageState {
    /// Wraps a stage name and its JSON state object.
    pub fn new(stage: impl Into<String>, state: impl Into<String>) -> Self {
        Self {
            stage: stage.into(),
            state: state.into(),
        }
    }

    /// The stage this state belongs to.
    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// The stage's state as a JSON object string.
    pub fn state(&self) -> &str {
        &self.state
    }
}

/// Output of [`Framing`]: one processing tick over the buffered history.
#[derive(Debug)]
pub struct FrameTick {
    /// Simulated time of the tick (the newest report's clamped time, or
    /// the flush horizon).
    pub now: f64,
    /// Wall-clock start of the tick, for response-time accounting.
    pub started: Instant,
    /// Per-frame RMS scores over the buffered history.
    pub frames: FrameSeq,
    /// Snapshot of the calibrated streams at this tick. Shared with the
    /// framing stage's incremental builder; dropping the tick after the
    /// cascade keeps later pushes copy-free.
    pub streams: Arc<TagStreams>,
}

/// Output of [`Segmentation`]: the spans newly confirmed at one tick.
#[derive(Debug)]
pub struct SpanBatch {
    /// Simulated time of the tick.
    pub now: f64,
    /// Wall-clock start of the tick.
    pub started: Instant,
    /// Stream snapshot the spans were segmented from.
    pub streams: Arc<TagStreams>,
    /// Spans whose end is silence-confirmed and that were not reported
    /// before (already deduplicated).
    pub spans: Vec<StrokeSpan>,
    /// End of the latest active frame, or `NEG_INFINITY` when no frame
    /// is active — a stroke in progress holds the letter open.
    pub last_activity: f64,
}

/// Output of [`Motion`]: the recognized strokes of one tick.
#[derive(Debug)]
pub struct StrokeBatch {
    /// Simulated time of the tick.
    pub now: f64,
    /// End of the latest active frame at the tick.
    pub last_activity: f64,
    /// Recognized strokes with their wall-clock response times.
    pub strokes: Vec<(RecognizedStroke, f64)>,
}

/// Output of [`LetterRecognition`]: pass-through strokes and letter
/// closes, in emission order.
#[derive(Debug)]
pub enum LetterOut {
    /// A recognized stroke to report immediately.
    Stroke {
        /// The recognized stroke.
        stroke: RecognizedStroke,
        /// Wall-clock compute time spent producing it, seconds.
        response_time_s: f64,
    },
    /// An idle gap closed the letter.
    Close {
        /// The strokes composing the letter, in detection order.
        strokes: Vec<RecognizedStroke>,
        /// End time of the letter's last stroke; history at or before
        /// this point is dead and the graph trims it.
        letter_end: f64,
    },
}

/// Incrementally maintained view of the buffered reports: calibrated
/// per-tag streams plus the per-frame RMS accumulators over them. Kept
/// in step with [`Framing`]'s buffer on every push and *dropped*
/// whenever the buffer is trimmed — a rebuild from a shorter history
/// legitimately re-picks unwrap state and the Eq. 8 re-centring offsets
/// at the new first sample, so patching the cache in place would
/// diverge from a from-scratch build.
#[derive(Debug, Default)]
struct StreamCache {
    streams: TagStreamsBuilder,
    /// Created at the first in-layout report; that report's time anchors
    /// frame 0, matching the batch build's `streams.start()`.
    frames: Option<FrameBuilder>,
    /// A retired frame builder kept for its allocations: the next rebuild
    /// re-anchors it instead of constructing a fresh one.
    spare: Option<FrameBuilder>,
}

impl StreamCache {
    /// Empties the cache while keeping its allocations (stream series,
    /// frame accumulators) for the next rebuild.
    fn reset(&mut self) {
        self.streams.clear();
        if let Some(frames) = self.frames.take() {
            self.spare = Some(frames);
        }
    }
}

/// Appends one (already clamped) report to the cache, mirroring what a
/// batch rebuild over the buffer would accumulate for it.
fn cache_append(
    cache: &mut StreamCache,
    recognizer: &Recognizer,
    noise_floors: &[f64],
    obs: &TagReport,
) {
    let layout = recognizer.layout();
    if let Some((tag, t, v)) = cache
        .streams
        .push(layout, Some(recognizer.calibration()), obs)
    {
        let frames = match &mut cache.frames {
            Some(frames) => frames,
            frames @ None => frames.insert(match cache.spare.take() {
                // A retired builder carries the right stream count,
                // floors, and frame length; only the anchor moves.
                Some(mut spare) => {
                    spare.reset_anchor(t);
                    spare
                }
                None => FrameBuilder::new(
                    layout.len(),
                    Some(noise_floors.to_vec()),
                    t,
                    recognizer.config().frame_len_s,
                ),
            }),
        };
        let idx = layout.stream_index(tag).expect("accepted tag in layout");
        frames.push(idx, t, v);
    }
}

/// Stage 1: report buffering, incremental stream/frame maintenance, and
/// the once-per-frame tick cut (§III-A plus the retention policy).
///
/// Owns the raw report history. Emits a [`FrameTick`] at most once per
/// frame length; [`Stage::flush`] emits one final tick at a horizon far
/// enough past the last report to confirm and close everything pending.
#[derive(Debug)]
pub struct Framing {
    recognizer: Arc<Recognizer>,
    /// Per-stream noise floors in layout order (static per calibration).
    noise_floors: Vec<f64>,
    letter_gap_s: f64,
    end_guard_s: f64,
    buffer: Vec<TagReport>,
    /// Incremental streams + frames over `buffer`; `None` after a trim
    /// until the next tick rebuilds it.
    cache: Option<StreamCache>,
    /// An invalidated cache kept for its allocations; the next rebuild
    /// starts from it instead of a fresh [`StreamCache`].
    spare_cache: Option<StreamCache>,
    /// A consumed tick's frame sequence handed back by the graph; the
    /// next tick builds into it instead of allocating.
    spare_frames: Option<FrameSeq>,
    last_processed: f64,
    /// Start of the oldest pending stroke (set by the graph before each
    /// push): retention never cuts into an unclosed letter's history.
    hold_from: Option<f64>,
    /// Cut point of a retention trim this push, for the graph to forward
    /// to [`Segmentation::trim_reported`].
    pending_trim: Option<f64>,
}

impl Framing {
    /// Creates the stage. `end_guard_s` is the silence that confirms a
    /// stroke's end; `letter_gap_s` the idle time that closes a letter.
    pub fn new(recognizer: Arc<Recognizer>, letter_gap_s: f64, end_guard_s: f64) -> Self {
        let noise_floors = recognizer.noise_floors();
        Self {
            recognizer,
            noise_floors,
            letter_gap_s,
            end_guard_s,
            buffer: Vec::new(),
            cache: None,
            spare_cache: None,
            spare_frames: None,
            last_processed: f64::NEG_INFINITY,
            hold_from: None,
            pending_trim: None,
        }
    }

    /// Anchors retention: history from 1 s before `anchor` survives even
    /// past the rolling window, so a pending letter's evidence is never
    /// trimmed away.
    pub fn set_hold_anchor(&mut self, anchor: Option<f64>) {
        self.hold_from = anchor;
    }

    /// Takes the cut point of a retention trim performed by the latest
    /// push, if any. The graph forwards it downstream so span-dedup
    /// entries older than the retained history are dropped too.
    pub fn take_trim(&mut self) -> Option<f64> {
        self.pending_trim.take()
    }

    /// Drops history at or before `letter_end` after a letter closed.
    /// The shortened history re-anchors stream centring, so the
    /// incremental cache is dropped with it and rebuilt at the next
    /// tick.
    pub fn trim_after_letter(&mut self, letter_end: f64) {
        self.buffer.retain(|o| o.time > letter_end);
        self.invalidate_cache();
    }

    /// Drops the incremental cache, parking it (emptied) as the spare so
    /// the rebuild reuses its allocations.
    fn invalidate_cache(&mut self) {
        if let Some(mut cache) = self.cache.take() {
            cache.reset();
            self.spare_cache = Some(cache);
        }
    }

    /// Hands a consumed tick's frame sequence back for reuse by the next
    /// tick.
    pub(crate) fn recycle_frames(&mut self, frames: FrameSeq) {
        self.spare_frames = Some(frames);
    }

    /// Rebuilds the incremental cache from the buffer if a trim dropped
    /// it, reusing the retired cache's allocations when one is parked.
    fn ensure_cache(&mut self) {
        if self.cache.is_some() {
            return;
        }
        let mut cache = self.spare_cache.take().unwrap_or_default();
        for obs in &self.buffer {
            cache_append(&mut cache, &self.recognizer, &self.noise_floors, obs);
        }
        self.cache = Some(cache);
    }

    /// Cuts one processing tick at `now`: finalized frames plus a shared
    /// stream snapshot. The stage histogram times the tick (the cache
    /// rebuild + frame cut), not the per-report append — the cheap
    /// steady-state push must not pay for two clock reads per report, and
    /// even the tick timer rides the head sampler to stay inside the
    /// telemetry overhead budget.
    fn tick(&mut self, now: f64, out: &mut Vec<FrameTick>) {
        let _span = crate::telemetry::stage_metrics()
            .framing
            .start_span_if(obs::trace::sampler().sample());
        let started = Instant::now();
        self.ensure_cache();
        let mut frames = self.spare_frames.take().unwrap_or_default();
        let cache = self.cache.as_mut().expect("ensured above");
        match (&mut cache.frames, cache.streams.streams().end()) {
            (Some(builder), Some(end)) => builder.build_into(end, &mut frames),
            _ => frames.clear(),
        }
        out.push(FrameTick {
            now,
            started,
            frames,
            streams: cache.streams.shared_streams(),
        });
    }
}

impl Stage for Framing {
    type In = TagReport;
    type Out = FrameTick;

    fn name(&self) -> &'static str {
        "framing"
    }

    fn push(&mut self, obs: TagReport, out: &mut Vec<FrameTick>) {
        let now = obs.time;
        self.buffer.push(obs);
        // Keep the incremental cache in step with the buffer. A cache
        // dropped by a trim is rebuilt lazily at the next tick.
        if let Some(cache) = self.cache.as_mut() {
            cache_append(cache, &self.recognizer, &self.noise_floors, &obs);
        }
        // Bound the history: drop everything older than the retention
        // window, but never cut into a pending (unclosed) letter.
        let keep_from = self
            .hold_from
            .map(|s| s - 1.0)
            .unwrap_or(f64::INFINITY)
            .min(now - MAX_BUFFER_S);
        if self
            .buffer
            .first()
            .map(|o| o.time < keep_from - 5.0)
            .unwrap_or(false)
        {
            self.buffer.retain(|o| o.time >= keep_from);
            self.pending_trim = Some(keep_from);
            self.invalidate_cache();
        }
        // Re-evaluate once per frame, not per read.
        if now - self.last_processed < self.recognizer.config().frame_len_s {
            return;
        }
        self.last_processed = now;
        self.tick(now, out);
    }

    fn flush(&mut self, out: &mut Vec<FrameTick>) {
        // A horizon far enough past the last report that every span is
        // confirmed and any pending letter's idle gap has elapsed.
        let now = self
            .buffer
            .last()
            .map(|o| o.time + self.letter_gap_s + self.end_guard_s)
            .unwrap_or(0.0);
        self.tick(now, out);
    }

    fn snapshot(&self) -> StageState {
        let buffer: Vec<String> = self.buffer.iter().map(report_to_json).collect();
        // Diagnostics of the live frame accumulator, if one exists: the
        // restore path rebuilds it from the buffer (deterministic, per
        // the cache-matches-rebuild invariant) and verifies these bits.
        let frames = self
            .cache
            .as_ref()
            .and_then(|c| c.frames.as_ref())
            .map(|f| {
                format!(
                    "{{\"anchor_bits\":{},\"frame_len_bits\":{},\"max_time_bits\":{}}}",
                    f.start().to_bits(),
                    f.frame_len().to_bits(),
                    f.max_time().to_bits()
                )
            })
            .unwrap_or_else(|| "null".into());
        StageState::new(
            self.name(),
            format!(
                "{{\"last_processed_bits\":{},\"buffer\":[{}],\"frames\":{}}}",
                self.last_processed.to_bits(),
                buffer.join(","),
                frames
            ),
        )
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        let [last_processed, buffer, frames] =
            stage_json(self.name(), state)?.fields(["last_processed_bits", "buffer", "frames"])?;
        let buffer = buffer
            .into_array()?
            .into_iter()
            .map(report_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // The stream builders need a finite, time-ordered history.
        if !(buffer.iter().all(|o| o.time.is_finite())
            && buffer.windows(2).all(|w| w[0].time <= w[1].time))
        {
            return Err(checkpoint_err(
                "framing buffer times must be finite and non-decreasing",
            ));
        }
        self.last_processed = bits(&last_processed)?;
        self.buffer = buffer;
        self.invalidate_cache();
        self.hold_from = None;
        self.pending_trim = None;
        if !frames.is_null() {
            // Rebuild the accumulator the next tick would build anyway
            // and verify it against the checkpointed diagnostics — a
            // cheap integrity check that the buffer round-tripped bit
            // for bit.
            let [anchor, frame_len, max_time] =
                frames.fields(["anchor_bits", "frame_len_bits", "max_time_bits"])?;
            let expected: [u64; 3] = [anchor.as_uint()?, frame_len.as_uint()?, max_time.as_uint()?];
            self.ensure_cache();
            let rebuilt = self
                .cache
                .as_ref()
                .and_then(|c| c.frames.as_ref())
                .map(|f| [f.start(), f.frame_len(), f.max_time()].map(f64::to_bits));
            if rebuilt != Some(expected) {
                return Err(checkpoint_err(
                    "rebuilt frame accumulator diverges from the checkpoint",
                ));
            }
        }
        Ok(())
    }
}

/// Stage 2: stroke segmentation over each frame tick (Eq. 11–12), plus
/// span deduplication across ticks.
///
/// Re-segmenting the whole buffered window every tick re-discovers old
/// spans; `reported_spans` remembers what was already handed downstream
/// (by span start, ±0.25 s) so each stroke is reported exactly once.
#[derive(Debug)]
pub struct Segmentation {
    recognizer: Arc<Recognizer>,
    end_guard_s: f64,
    /// Spans already reported (by their start time), kept sorted.
    reported_spans: Vec<f64>,
    /// The most recent full segmentation, for diagnostics and the
    /// experiment trials' per-session outcome scoring. Doubles as the
    /// reusable output buffer: each tick takes it, re-scores into it, and
    /// puts it back, so steady-state scoring allocates nothing.
    last: Option<crate::segmentation::Segmentation>,
    /// Reusable intermediate buffers for the scoring kernels.
    scratch: sigproc::kernel::Scratch,
    /// The consumed tick's frame sequence, for the graph to hand back to
    /// [`Framing::recycle_frames`].
    spare_frames: Option<FrameSeq>,
}

impl Segmentation {
    /// Creates the stage. `end_guard_s` is the silence that confirms a
    /// span has ended.
    pub fn new(recognizer: Arc<Recognizer>, end_guard_s: f64) -> Self {
        Self {
            recognizer,
            end_guard_s,
            reported_spans: Vec::new(),
            last: None,
            scratch: sigproc::kernel::Scratch::new(),
            spare_frames: None,
        }
    }

    /// Takes the frame sequence consumed by the latest tick, if any, so
    /// its allocation can be recycled upstream.
    pub(crate) fn take_spare_frames(&mut self) -> Option<FrameSeq> {
        self.spare_frames.take()
    }

    /// The most recent full segmentation (spans, frame scores, and the
    /// threshold), if a tick has run.
    pub fn last_segmentation(&self) -> Option<&crate::segmentation::Segmentation> {
        self.last.as_ref()
    }

    /// Drops dedup entries older than the retained history; spans there
    /// can never re-segment, so they are dead weight.
    pub fn trim_reported(&mut self, keep_from: f64) {
        self.reported_spans.retain(|&s| s >= keep_from);
    }

    /// Forgets all dedup entries (a letter close trims the history they
    /// guard).
    pub fn clear_reported(&mut self) {
        self.reported_spans.clear();
    }

    /// Whether a span starting at `start` was already reported, within
    /// the ±0.25 s dedup tolerance. `reported_spans` is sorted, so this
    /// is a binary search plus a scan bounded by the tolerance window.
    fn already_reported(&self, start: f64) -> bool {
        let lo = self.reported_spans.partition_point(|&s| s < start - 0.25);
        self.reported_spans[lo..]
            .iter()
            .take_while(|&&s| s < start + 0.25)
            .any(|&s| (s - start).abs() < 0.25)
    }

    /// Records a reported span start, keeping `reported_spans` sorted.
    fn mark_reported(&mut self, start: f64) {
        let at = self.reported_spans.partition_point(|&s| s < start);
        self.reported_spans.insert(at, start);
    }
}

impl Stage for Segmentation {
    type In = FrameTick;
    type Out = SpanBatch;

    fn name(&self) -> &'static str {
        "segmentation"
    }

    fn push(&mut self, tick: FrameTick, out: &mut Vec<SpanBatch>) {
        let FrameTick {
            now,
            started,
            frames,
            streams,
        } = tick;
        // Re-score into the previous tick's segmentation (its spans and
        // frame-score vectors are exactly the right size next tick too).
        let mut segmentation = self.last.take().unwrap_or_default();
        self.recognizer
            .segment_frames_into(&frames, &mut self.scratch, &mut segmentation);
        self.spare_frames = Some(frames);
        let mut spans = Vec::new();
        for &span in &segmentation.spans {
            let confirmed = now - span.end >= self.end_guard_s;
            if confirmed && !self.already_reported(span.start) {
                self.mark_reported(span.start);
                spans.push(span);
            }
        }
        // The idle gap that closes a letter is measured from the latest
        // *activity* — a stroke in progress (active frames not yet
        // confirmed as a span) holds the letter open.
        let last_activity = segmentation
            .frames
            .iter()
            .rev()
            .find(|f| f.active)
            .map(|f| f.time + self.recognizer.config().frame_len_s)
            .unwrap_or(f64::NEG_INFINITY);
        self.last = Some(segmentation);
        // Emitted even with no new spans: the letter stage needs every
        // tick's clock and activity to decide the close.
        out.push(SpanBatch {
            now,
            started,
            streams,
            spans,
            last_activity,
        });
    }

    fn snapshot(&self) -> StageState {
        let spans: Vec<String> = self
            .reported_spans
            .iter()
            .map(|s| s.to_bits().to_string())
            .collect();
        StageState::new(
            self.name(),
            format!("{{\"reported_spans_bits\":[{}]}}", spans.join(",")),
        )
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        let [spans] = stage_json(self.name(), state)?.fields(["reported_spans_bits"])?;
        self.reported_spans = spans
            .into_array()?
            .iter()
            .map(bits)
            .collect::<Result<_, _>>()?;
        // The last segmentation is diagnostic only; it reappears at the
        // first tick after restore.
        self.last = None;
        Ok(())
    }
}

/// Stage 3: motion classification of confirmed spans (§III-C2).
///
/// Stateless: every confirmed span either becomes a recognized stroke or
/// is rejected (counted and logged, never retried — the span was already
/// marked reported upstream).
#[derive(Debug)]
pub struct Motion {
    recognizer: Arc<Recognizer>,
}

impl Motion {
    /// Creates the stage.
    pub fn new(recognizer: Arc<Recognizer>) -> Self {
        Self { recognizer }
    }
}

impl Stage for Motion {
    type In = SpanBatch;
    type Out = StrokeBatch;

    fn name(&self) -> &'static str {
        "motion"
    }

    fn push(&mut self, batch: SpanBatch, out: &mut Vec<StrokeBatch>) {
        let metrics = crate::telemetry::stage_metrics();
        let mut strokes = Vec::new();
        for &span in &batch.spans {
            let stroke_t0 = Instant::now();
            match self.recognizer.recognize_span(&batch.streams, span) {
                Some(stroke) => {
                    metrics.strokes.inc();
                    let response_time_s =
                        stroke_t0.elapsed().as_secs_f64() + batch.started.elapsed().as_secs_f64();
                    strokes.push((stroke, response_time_s));
                }
                None => {
                    metrics.rejected_spans.inc();
                    obs::debug!(
                        "rejected unclassifiable span";
                        start = format!("{:.2}", span.start),
                        end = format!("{:.2}", span.end)
                    );
                }
            }
        }
        out.push(StrokeBatch {
            now: batch.now,
            last_activity: batch.last_activity,
            strokes,
        });
    }

    fn snapshot(&self) -> StageState {
        StageState::new(self.name(), "{}")
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        let [] = stage_json(self.name(), state)?.fields([])?;
        Ok(())
    }
}

/// Stage 4: letter assembly — buffers recognized strokes and closes the
/// letter once the writer stays idle for the configured gap.
#[derive(Debug)]
pub struct LetterRecognition {
    /// Simulated seconds of silence that close a letter.
    letter_gap_s: f64,
    pending: Vec<RecognizedStroke>,
}

impl LetterRecognition {
    /// Creates the stage.
    pub fn new(letter_gap_s: f64) -> Self {
        Self {
            letter_gap_s,
            pending: Vec::new(),
        }
    }

    /// Start of the oldest pending stroke: the retention anchor the
    /// graph feeds back to [`Framing::set_hold_anchor`].
    pub fn hold_anchor(&self) -> Option<f64> {
        self.pending.first().map(|s| s.span.start)
    }
}

impl Stage for LetterRecognition {
    type In = StrokeBatch;
    type Out = LetterOut;

    fn name(&self) -> &'static str {
        "letter"
    }

    fn push(&mut self, batch: StrokeBatch, out: &mut Vec<LetterOut>) {
        for (stroke, response_time_s) in batch.strokes {
            self.pending.push(stroke.clone());
            out.push(LetterOut::Stroke {
                stroke,
                response_time_s,
            });
        }
        if let Some(last) = self.pending.last() {
            let idle_anchor = last.span.end.max(batch.last_activity);
            if batch.now - idle_anchor >= self.letter_gap_s {
                let strokes = std::mem::take(&mut self.pending);
                let letter_end = strokes.last().map(|s| s.span.end).unwrap_or(batch.now);
                out.push(LetterOut::Close {
                    strokes,
                    letter_end,
                });
            }
        }
    }

    fn snapshot(&self) -> StageState {
        let pending: Vec<String> = self.pending.iter().map(stroke_to_json).collect();
        StageState::new(
            self.name(),
            format!("{{\"pending\":[{}]}}", pending.join(",")),
        )
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        let [pending] = stage_json(self.name(), state)?.fields(["pending"])?;
        self.pending = pending
            .into_array()?
            .into_iter()
            .map(stroke_from_json)
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// Stage 5: grammar deduction and event emission (§III-D).
///
/// Stateless: strokes pass through as [`PipelineEvent::StrokeDetected`];
/// a close runs the fuzzy grammar over the composed strokes and emits
/// [`PipelineEvent::LetterRecognized`].
#[derive(Debug)]
pub struct Grammar {
    recognizer: Arc<Recognizer>,
    end_guard_s: f64,
}

impl Grammar {
    /// Creates the stage. `end_guard_s` becomes each stroke event's
    /// `decision_delay_s` (the silence that confirmed it).
    pub fn new(recognizer: Arc<Recognizer>, end_guard_s: f64) -> Self {
        Self {
            recognizer,
            end_guard_s,
        }
    }
}

impl Stage for Grammar {
    type In = LetterOut;
    type Out = PipelineEvent;

    fn name(&self) -> &'static str {
        "grammar"
    }

    fn push(&mut self, input: LetterOut, out: &mut Vec<PipelineEvent>) {
        match input {
            LetterOut::Stroke {
                stroke,
                response_time_s,
            } => out.push(PipelineEvent::StrokeDetected {
                stroke,
                response_time_s,
                decision_delay_s: self.end_guard_s,
            }),
            LetterOut::Close { strokes, .. } => {
                let t0 = Instant::now();
                let observed: Vec<_> = strokes
                    .iter()
                    .map(|s| s.to_observed(self.recognizer.layout()))
                    .collect();
                let letter = self.recognizer.grammar().deduce_fuzzy(&observed);
                crate::telemetry::stage_metrics().letters.inc();
                out.push(PipelineEvent::LetterRecognized {
                    letter,
                    strokes,
                    response_time_s: t0.elapsed().as_secs_f64(),
                });
            }
        }
    }

    fn snapshot(&self) -> StageState {
        StageState::new(self.name(), "{}")
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        let [] = stage_json(self.name(), state)?.fields([])?;
        Ok(())
    }
}

/// Validating builder for [`StageGraph`], the supported way to construct
/// one.
///
/// ```no_run
/// # fn demo(recognizer: rfipad::Recognizer) -> Result<(), rfipad::RfipadError> {
/// let graph = rfipad::StageGraph::builder()
///     .recognizer(recognizer)
///     .letter_gap_s(1.5)
///     .build()?;
/// # let _ = graph; Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to obtain the graph"]
pub struct StageGraphBuilder {
    recognizer: Option<Recognizer>,
    letter_gap_s: Option<f64>,
    out_of_order: OutOfOrderPolicy,
}

impl StageGraphBuilder {
    /// The recognizer the stages share (required).
    pub fn recognizer(mut self, recognizer: Recognizer) -> Self {
        self.recognizer = Some(recognizer);
        self
    }

    /// Idle time that closes a letter, simulated seconds (default 1.5 s,
    /// comfortable for the default writer profiles).
    pub fn letter_gap_s(mut self, letter_gap_s: f64) -> Self {
        self.letter_gap_s = Some(letter_gap_s);
        self
    }

    /// Policy for reports whose timestamps run backwards (default
    /// [`OutOfOrderPolicy::Clamp`]).
    pub fn out_of_order(mut self, policy: OutOfOrderPolicy) -> Self {
        self.out_of_order = policy;
        self
    }

    /// Validates the configuration and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::InvalidConfig`] if no recognizer was given
    /// or `letter_gap_s` is not positive and finite.
    pub fn build(self) -> Result<StageGraph, RfipadError> {
        let recognizer = self.recognizer.ok_or_else(|| {
            RfipadError::invalid_field("StageGraphBuilder", "recognizer", "required but not set")
        })?;
        let letter_gap_s = self.letter_gap_s.unwrap_or(1.5);
        if !(letter_gap_s > 0.0 && letter_gap_s.is_finite()) {
            return Err(RfipadError::invalid_field(
                "StageGraphBuilder",
                "letter_gap_s",
                format!("must be positive and finite, got {letter_gap_s}"),
            ));
        }
        let end_guard_s =
            recognizer.config().frame_len_s * recognizer.config().window_frames as f64;
        let recognizer = Arc::new(recognizer);
        Ok(StageGraph {
            framing: Framing::new(Arc::clone(&recognizer), letter_gap_s, end_guard_s),
            segmentation: Segmentation::new(Arc::clone(&recognizer), end_guard_s),
            motion: Motion::new(Arc::clone(&recognizer)),
            letter: LetterRecognition::new(letter_gap_s),
            grammar: Grammar::new(Arc::clone(&recognizer), end_guard_s),
            recognizer,
            letter_gap_s,
            end_guard_s,
            out_of_order: self.out_of_order,
            last_time: f64::NEG_INFINITY,
            out_of_order_count: 0,
            finished: false,
            ticks: Vec::new(),
            spans: Vec::new(),
            strokes: Vec::new(),
            letters: Vec::new(),
            trace: None,
        })
    }
}

/// The five-stage online recognition cascade, wired in order.
///
/// Owns report admission (the out-of-order policy), drives each stage
/// under its `rfipad_stage_push_seconds{stage=...}` histogram, and
/// routes the letter-close feedback (history trim + dedup reset) back
/// upstream. Every streaming caller — the engine sessions, the ingest
/// server, `multipad`, the experiment trials — drives this type.
#[derive(Debug)]
pub struct StageGraph {
    recognizer: Arc<Recognizer>,
    letter_gap_s: f64,
    end_guard_s: f64,
    /// What to do with reports whose timestamps run backwards.
    out_of_order: OutOfOrderPolicy,
    /// Newest report timestamp consumed so far.
    last_time: f64,
    /// Reports that arrived with a timestamp older than `last_time`.
    out_of_order_count: u64,
    /// Whether [`StageGraph::finish`] already flushed the stream.
    finished: bool,
    framing: Framing,
    segmentation: Segmentation,
    motion: Motion,
    letter: LetterRecognition,
    grammar: Grammar,
    // Scratch edge buffers, reused across pushes so the steady-state
    // cascade allocates nothing.
    ticks: Vec<FrameTick>,
    spans: Vec<SpanBatch>,
    strokes: Vec<StrokeBatch>,
    letters: Vec<LetterOut>,
    /// Trace binding for served sessions: sampled stage pushes emit
    /// `stage:*` child spans into the session's flight recorder.
    trace: Option<StageTrace>,
}

/// Runtime trace binding of a graph to a session's flight recorder.
/// Never checkpointed: tracing is an observation of a run, not state of
/// the recognition.
#[derive(Debug, Clone)]
pub(crate) struct StageTrace {
    /// The session's flight recorder (also the span timebase).
    pub recorder: Arc<obs::trace::FlightRecorder>,
    /// The trace every emitted span belongs to.
    pub trace: obs::trace::TraceId,
    /// Parent of the emitted stage spans (the session's root span).
    pub parent: obs::trace::SpanId,
}

impl StageGraph {
    /// Starts a validating builder ([`StageGraphBuilder`]).
    pub fn builder() -> StageGraphBuilder {
        StageGraphBuilder::default()
    }

    /// The recognizer shared by the stages.
    pub fn recognizer(&self) -> &Recognizer {
        &self.recognizer
    }

    /// The idle gap (simulated seconds) that closes a letter.
    pub fn letter_gap_s(&self) -> f64 {
        self.letter_gap_s
    }

    /// How many reports arrived with a timestamp older than an already
    /// consumed one (and were clamped or dropped per the configured
    /// [`OutOfOrderPolicy`]), plus those dropped for a non-finite time,
    /// phase or RSS.
    pub fn out_of_order_count(&self) -> u64 {
        self.out_of_order_count
    }

    /// The most recent full segmentation over the buffered history
    /// (spans, frame scores, threshold), if a tick has run.
    pub fn last_segmentation(&self) -> Option<&crate::segmentation::Segmentation> {
        self.segmentation.last_segmentation()
    }

    /// Feeds one tag report; returns any events it triggered.
    ///
    /// Reports are expected in time order (a single reader stream is);
    /// stale timestamps from multi-antenna or multi-source merges are
    /// clamped or dropped per the configured [`OutOfOrderPolicy`] and
    /// counted in [`StageGraph::out_of_order_count`]. A report with a
    /// non-finite time, phase or RSS is dropped and counted there under
    /// either policy. Feeding after [`StageGraph::finish`] resumes the
    /// stream.
    pub fn push(&mut self, obs: TagReport) -> Vec<PipelineEvent> {
        let mut events = Vec::new();
        self.push_into(obs, &mut events);
        events
    }

    /// Like [`push`](Self::push), but appends any triggered events to
    /// `events` instead of allocating a fresh vector — the hot-path
    /// entry point for callers that reuse one event buffer.
    pub fn push_into(&mut self, mut obs: TagReport, events: &mut Vec<PipelineEvent>) {
        self.finished = false;
        let metrics = crate::telemetry::stage_metrics();
        metrics.reports.inc();
        // Doppler is not read by recognition, so only phase and RSS are
        // audited: one non-finite value would poison a whole stroke.
        if !(obs.phase.is_finite() && obs.rss_dbm.is_finite()) {
            self.out_of_order_count += 1;
            metrics.out_of_order_dropped.inc();
            return;
        }
        if obs.time < self.last_time || !obs.time.is_finite() {
            self.out_of_order_count += 1;
            // Mirror into the durable registry counters: the per-graph
            // count above dies with the session, these survive eviction.
            // A non-finite time is dropped under either policy: clamping
            // it at stream start would anchor frames at -inf.
            if self.out_of_order == OutOfOrderPolicy::Clamp && obs.time.is_finite() {
                metrics.out_of_order_clamped.inc();
                obs.time = self.last_time;
            } else {
                metrics.out_of_order_dropped.inc();
                return;
            }
        }
        self.last_time = obs.time;
        // The framing hop is only measured for trace-bound (served)
        // sessions, and then only on sampled pushes — untraced replays pay
        // one Option check per report.
        let framing_hop = if self.trace.is_some() {
            self.begin_stage_hop(obs::trace::sampler().sample())
        } else {
            None
        };
        // Retention must not cut into the letter being assembled: feed
        // the letter stage's oldest pending stroke back as the anchor.
        self.framing.set_hold_anchor(self.letter.hold_anchor());
        self.framing.push(obs, &mut self.ticks);
        if let Some(keep_from) = self.framing.take_trim() {
            self.segmentation.trim_reported(keep_from);
        }
        self.end_stage_hop(0, framing_hop);
        // Most pushes buffer without crossing a frame boundary; only a
        // tick has anything to drive downstream.
        if !self.ticks.is_empty() {
            self.cascade(events);
        }
    }

    /// Feeds a batch of reports in order, appending any triggered events
    /// to `events`. Equivalent to pushing each report individually; one
    /// event buffer serves the whole batch.
    pub fn push_batch(
        &mut self,
        reports: impl IntoIterator<Item = TagReport>,
        events: &mut Vec<PipelineEvent>,
    ) {
        for obs in reports {
            self.push_into(obs, events);
        }
    }

    /// Flushes the graph at end of input (closes any pending stroke or
    /// letter regardless of gaps).
    ///
    /// Idempotent: a second `finish` without an intervening
    /// [`StageGraph::push`] returns no events, so drain-then-close
    /// sequences (and engine eviction racing an explicit close) cannot
    /// duplicate reports.
    pub fn finish(&mut self) -> Vec<PipelineEvent> {
        let mut events = Vec::new();
        self.finish_into(&mut events);
        events
    }

    /// Like [`finish`](Self::finish), but appends any events to
    /// `events`.
    pub fn finish_into(&mut self, events: &mut Vec<PipelineEvent>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.framing.flush(&mut self.ticks);
        self.cascade(events);
    }

    /// Binds (or unbinds) the graph to a session trace: sampled stage
    /// pushes then emit `stage:*` child spans into the session's flight
    /// recorder.
    pub(crate) fn bind_trace(&mut self, binding: Option<StageTrace>) {
        self.trace = binding;
    }

    /// The graph's trace binding, if a serving layer installed one.
    pub(crate) fn trace_binding(&self) -> Option<&StageTrace> {
        self.trace.as_ref()
    }

    /// Opens one sampled stage-hop measurement: the recorder timebase
    /// stamp (when a trace is bound) plus the wall clock. `None` when this
    /// push is not sampled.
    fn begin_stage_hop(&self, sampled: bool) -> Option<(Option<u64>, Instant)> {
        if !sampled {
            return None;
        }
        let stamp = self.trace.as_ref().map(|t| t.recorder.now_us());
        Some((stamp, Instant::now()))
    }

    /// Closes a sampled stage-hop measurement: records the
    /// `rfipad_hop_seconds{hop=stage:<name>}` histogram and, when a trace
    /// is bound, a `stage:<name>` child span in the flight recorder.
    fn end_stage_hop(&self, stage: usize, begun: Option<(Option<u64>, Instant)>) {
        let Some((stamp, t0)) = begun else { return };
        let elapsed = t0.elapsed();
        crate::telemetry::hop_metrics().stages[stage].record_duration_ns(elapsed);
        if let (Some(start_us), Some(tr)) = (stamp, self.trace.as_ref()) {
            let end_us = start_us + elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            obs::trace::finish_span(
                &tr.recorder,
                obs::trace::SpanEvent {
                    trace: tr.trace,
                    span: obs::trace::next_span_id(),
                    parent: Some(tr.parent),
                    name: format!("stage:{}", crate::telemetry::STAGE_NAMES[stage]),
                    start_us,
                    end_us,
                },
            );
        }
    }

    /// Drains every edge buffer through the downstream stages, timing
    /// each downstream stage push (framing times its own ticks), and
    /// routes letter-close feedback upstream. Stage timers and hop spans
    /// are head-sampled (`obs::trace::sampler`) so the per-report cascade
    /// stays inside the telemetry overhead budget.
    fn cascade(&mut self, events: &mut Vec<PipelineEvent>) {
        let metrics = crate::telemetry::stage_metrics();
        let sampled = obs::trace::sampler().sample();
        let mut ticks = std::mem::take(&mut self.ticks);
        for tick in ticks.drain(..) {
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.segmentation.start_span_if(sampled);
                self.segmentation.push(tick, &mut self.spans);
            }
            self.end_stage_hop(1, hop);
        }
        self.ticks = ticks;
        // The segmentation stage is done with the tick's frame sequence;
        // hand it back so the next tick builds into the same allocation.
        if let Some(frames) = self.segmentation.take_spare_frames() {
            self.framing.recycle_frames(frames);
        }
        let mut spans = std::mem::take(&mut self.spans);
        for batch in spans.drain(..) {
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.motion.start_span_if(sampled);
                self.motion.push(batch, &mut self.strokes);
            }
            self.end_stage_hop(2, hop);
        }
        self.spans = spans;
        let mut strokes = std::mem::take(&mut self.strokes);
        for batch in strokes.drain(..) {
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.letter.start_span_if(sampled);
                self.letter.push(batch, &mut self.letters);
            }
            self.end_stage_hop(3, hop);
        }
        self.strokes = strokes;
        let mut closed_at = None;
        let mut letters = std::mem::take(&mut self.letters);
        for out in letters.drain(..) {
            if let LetterOut::Close { letter_end, .. } = &out {
                closed_at = Some(*letter_end);
            }
            let hop = self.begin_stage_hop(sampled);
            {
                let _span = metrics.grammar.start_span_if(sampled);
                self.grammar.push(out, events);
            }
            self.end_stage_hop(4, hop);
        }
        self.letters = letters;
        if let Some(letter_end) = closed_at {
            // The letter's history is dead: trim it and forget the span
            // dedup entries that guarded it.
            self.framing.trim_after_letter(letter_end);
            self.segmentation.clear_reported();
        }
    }

    /// Captures the graph's full mutable state for session migration.
    ///
    /// The checkpoint is self-describing (versioned JSON via
    /// [`PipelineCheckpoint::to_json`]) and restores with
    /// [`StageGraph::restore_checkpoint`] on a graph built from the same
    /// recognizer configuration.
    pub fn checkpoint(&self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            policy: self.out_of_order,
            last_time: self.last_time,
            out_of_order_count: self.out_of_order_count,
            finished: self.finished,
            letter_gap_s: self.letter_gap_s,
            end_guard_s: self.end_guard_s,
            stages: vec![
                self.framing.snapshot(),
                self.segmentation.snapshot(),
                self.motion.snapshot(),
                self.letter.snapshot(),
                self.grammar.snapshot(),
            ],
        }
    }

    /// Restores a [`checkpoint`](Self::checkpoint) into this graph,
    /// replacing its state. The graph then produces the same remaining
    /// events, bit for bit, as the graph the checkpoint was taken from.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::Checkpoint`] if the checkpoint was taken
    /// under a different configuration (letter gap or end guard), names
    /// an unknown stage, misses one of the five stages, or fails a
    /// stage's integrity checks. The graph's state is unspecified after
    /// an error; rebuild it before use.
    pub fn restore_checkpoint(
        &mut self,
        checkpoint: &PipelineCheckpoint,
    ) -> Result<(), RfipadError> {
        if checkpoint.letter_gap_s.to_bits() != self.letter_gap_s.to_bits()
            || checkpoint.end_guard_s.to_bits() != self.end_guard_s.to_bits()
        {
            return Err(checkpoint_err(
                "checkpoint was taken under a different pipeline configuration",
            ));
        }
        // The admission gate only ever holds -inf (no report yet) or the
        // finite time of the newest admitted report.
        if checkpoint.last_time.is_nan() || checkpoint.last_time == f64::INFINITY {
            return Err(checkpoint_err("last_time must be finite"));
        }
        let mut seen = [false; 5];
        for state in &checkpoint.stages {
            let slot = match state.stage() {
                "framing" => {
                    self.framing.restore(state)?;
                    0
                }
                "segmentation" => {
                    self.segmentation.restore(state)?;
                    1
                }
                "motion" => {
                    self.motion.restore(state)?;
                    2
                }
                "letter" => {
                    self.letter.restore(state)?;
                    3
                }
                "grammar" => {
                    self.grammar.restore(state)?;
                    4
                }
                other => return Err(checkpoint_err(format!("unknown stage {other:?}"))),
            };
            if seen[slot] {
                return Err(checkpoint_err(format!(
                    "duplicate stage {:?} in checkpoint",
                    state.stage()
                )));
            }
            seen[slot] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err(checkpoint_err("checkpoint is missing a stage"));
        }
        // Every buffered report passed the gate, so none is newer than it.
        if let Some(newest) = self.framing.buffer.last() {
            if newest.time > checkpoint.last_time {
                return Err(checkpoint_err("framing buffer runs past last_time"));
            }
        }
        self.out_of_order = checkpoint.policy;
        self.last_time = checkpoint.last_time;
        self.out_of_order_count = checkpoint.out_of_order_count;
        self.finished = checkpoint.finished;
        self.ticks.clear();
        self.spans.clear();
        self.strokes.clear();
        self.letters.clear();
        Ok(())
    }
}

/// The whole graph is itself a stage (reports in, events out), so a
/// graph can be embedded wherever a [`Stage`] is expected and its state
/// snapshots through the same interface.
impl Stage for StageGraph {
    type In = TagReport;
    type Out = PipelineEvent;

    fn name(&self) -> &'static str {
        "graph"
    }

    fn push(&mut self, input: TagReport, out: &mut Vec<PipelineEvent>) {
        self.push_into(input, out);
    }

    fn flush(&mut self, out: &mut Vec<PipelineEvent>) {
        self.finish_into(out);
    }

    fn snapshot(&self) -> StageState {
        StageState::new(self.name(), self.checkpoint().to_json())
    }

    fn restore(&mut self, state: &StageState) -> Result<(), RfipadError> {
        check_stage_name(self.name(), state)?;
        self.restore_checkpoint(&PipelineCheckpoint::from_json(state.state())?)
    }
}

/// A versioned snapshot of a [`StageGraph`]'s mutable state.
///
/// Serialized with [`to_json`](Self::to_json) /
/// [`from_json`](Self::from_json) — floats as IEEE-754 bit patterns,
/// strict JSON, unknown fields and foreign versions rejected — so a
/// checkpoint written by one process restores exactly in another.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCheckpoint {
    policy: OutOfOrderPolicy,
    last_time: f64,
    out_of_order_count: u64,
    finished: bool,
    letter_gap_s: f64,
    end_guard_s: f64,
    stages: Vec<StageState>,
}

/// Format version written by [`PipelineCheckpoint::to_json`].
const CHECKPOINT_VERSION: u64 = 1;

impl PipelineCheckpoint {
    /// Serializes the checkpoint as a single JSON object.
    pub fn to_json(&self) -> String {
        let policy = match self.policy {
            OutOfOrderPolicy::Clamp => "clamp",
            OutOfOrderPolicy::Drop => "drop",
        };
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("\"{}\":{}", s.stage(), s.state()))
            .collect();
        format!(
            "{{\"version\":{CHECKPOINT_VERSION},\"policy\":\"{policy}\",\"last_time_bits\":{},\
             \"out_of_order_count\":{},\"finished\":{},\"letter_gap_bits\":{},\
             \"end_guard_bits\":{},\"stages\":{{{}}}}}",
            self.last_time.to_bits(),
            self.out_of_order_count,
            self.finished,
            self.letter_gap_s.to_bits(),
            self.end_guard_s.to_bits(),
            stages.join(",")
        )
    }

    /// Parses a checkpoint serialized by [`to_json`](Self::to_json). Each
    /// [`StageState`] keeps the exact bytes of its stage's object.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::Checkpoint`] on malformed JSON, an
    /// unsupported version, an unknown policy, or unknown/missing
    /// fields.
    pub fn from_json(json: &str) -> Result<Self, RfipadError> {
        let [version, policy, last_time, out_of_order_count, finished, letter_gap, end_guard, stages] =
            json::parse(json)?.fields([
                "version",
                "policy",
                "last_time_bits",
                "out_of_order_count",
                "finished",
                "letter_gap_bits",
                "end_guard_bits",
                "stages",
            ])?;
        let version: u64 = version.as_uint()?;
        if version != CHECKPOINT_VERSION {
            return Err(checkpoint_err(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        Ok(Self {
            policy: match policy.as_str()? {
                "clamp" => OutOfOrderPolicy::Clamp,
                "drop" => OutOfOrderPolicy::Drop,
                other => {
                    return Err(checkpoint_err(format!(
                        "unknown out-of-order policy {other:?}"
                    )))
                }
            },
            last_time: bits(&last_time)?,
            out_of_order_count: out_of_order_count.as_uint()?,
            finished: finished.as_bool()?,
            letter_gap_s: bits(&letter_gap)?,
            end_guard_s: bits(&end_guard)?,
            stages: stages
                .into_object()?
                .into_iter()
                .map(|(stage, state)| StageState::new(stage, state.text()))
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------
// Stage-state codecs: `format!` writers, `obs::json` readers.

fn checkpoint_err(msg: impl Into<String>) -> RfipadError {
    RfipadError::Checkpoint(msg.into())
}

fn check_stage_name(expected: &str, state: &StageState) -> Result<(), RfipadError> {
    if state.stage() != expected {
        return Err(checkpoint_err(format!(
            "state for stage {:?} handed to stage {expected:?}",
            state.stage()
        )));
    }
    Ok(())
}

/// Parses `state`'s JSON, which must belong to the stage named `expected`.
fn stage_json<'a>(expected: &str, state: &'a StageState) -> Result<Value<'a>, RfipadError> {
    check_stage_name(expected, state)?;
    Ok(json::parse(state.state())?)
}

/// Reads an `f64` persisted as its IEEE-754 bit pattern (a `u64`).
fn bits(value: &Value<'_>) -> Result<f64, JsonError> {
    Ok(f64::from_bits(value.as_uint()?))
}

fn report_to_json(r: &TagReport) -> String {
    format!(
        "{{\"epc\":\"{}\",\"tag\":{},\"time_bits\":{},\"phase_bits\":{},\"rss_bits\":{},\
         \"doppler_bits\":{},\"antenna\":{},\"channel\":{}}}",
        r.epc.to_hex(),
        r.tag.0,
        r.time.to_bits(),
        r.phase.to_bits(),
        r.rss_dbm.to_bits(),
        r.doppler_hz.to_bits(),
        r.antenna_port,
        r.channel_index
    )
}

fn report_from_json(value: Value<'_>) -> Result<TagReport, JsonError> {
    let [epc, tag, time, phase, rss_dbm, doppler_hz, antenna, channel] = value.fields([
        "epc",
        "tag",
        "time_bits",
        "phase_bits",
        "rss_bits",
        "doppler_bits",
        "antenna",
        "channel",
    ])?;
    Ok(TagReport {
        epc: Epc96::from_hex(epc.as_str()?).ok_or_else(|| epc.error("expected 24 hex digits"))?,
        tag: TagId(tag.as_uint()?),
        time: bits(&time)?,
        phase: bits(&phase)?,
        rss_dbm: bits(&rss_dbm)?,
        doppler_hz: bits(&doppler_hz)?,
        antenna_port: antenna.as_uint()?,
        channel_index: channel.as_uint()?,
    })
}

fn stroke_to_json(s: &RecognizedStroke) -> String {
    let mask: String = (0..s.motion.mask.rows())
        .flat_map(|r| (0..s.motion.mask.cols()).map(move |c| (r, c)))
        .map(|(r, c)| if s.motion.mask.get(r, c) { '1' } else { '0' })
        .collect();
    format!(
        "{{\"shape\":{},\"reversed\":{},\"start_bits\":{},\"end_bits\":{},\"motion_shape\":{},\
         \"rows\":{},\"cols\":{},\"mask\":\"{mask}\",\"centroid_row_bits\":{},\
         \"centroid_col_bits\":{},\"bbox\":[{},{},{},{}]}}",
        s.stroke.shape.motion_number(),
        s.stroke.reversed,
        s.span.start.to_bits(),
        s.span.end.to_bits(),
        s.motion.shape.motion_number(),
        s.motion.mask.rows(),
        s.motion.mask.cols(),
        s.motion.centroid.0.to_bits(),
        s.motion.centroid.1.to_bits(),
        s.motion.bbox.0,
        s.motion.bbox.1,
        s.motion.bbox.2,
        s.motion.bbox.3
    )
}

fn shape_from_json(value: &Value<'_>) -> Result<StrokeShape, RfipadError> {
    let n: u64 = value.as_uint()?;
    StrokeShape::all()
        .into_iter()
        .find(|s| u64::from(s.motion_number()) == n)
        .ok_or_else(|| checkpoint_err(format!("unknown stroke shape {n}")))
}

fn stroke_from_json(value: Value<'_>) -> Result<RecognizedStroke, RfipadError> {
    let [shape, reversed, start, end, motion_shape, rows, cols, mask, centroid_row, centroid_col, bbox] =
        value.fields([
            "shape",
            "reversed",
            "start_bits",
            "end_bits",
            "motion_shape",
            "rows",
            "cols",
            "mask",
            "centroid_row_bits",
            "centroid_col_bits",
            "bbox",
        ])?;
    let (rows, cols): (usize, usize) = (rows.as_uint()?, cols.as_uint()?);
    let mask = mask.as_str()?;
    if !mask.bytes().all(|b| b == b'0' || b == b'1') {
        return Err(checkpoint_err("mask must be 0/1 digits"));
    }
    if rows.checked_mul(cols).filter(|&n| n > 0) != Some(mask.len()) {
        return Err(checkpoint_err("mask dimensions do not match its digits"));
    }
    let [min_r, min_c, max_r, max_c] = <[Value<'_>; 4]>::try_from(bbox.into_array()?)
        .map_err(|_| checkpoint_err("bbox must have four coordinates"))?;
    let bbox: (usize, usize, usize, usize) = (
        min_r.as_uint()?,
        min_c.as_uint()?,
        max_r.as_uint()?,
        max_c.as_uint()?,
    );
    // `RecognizedStroke::to_observed` subtracts min from max.
    if !(bbox.0 <= bbox.2 && bbox.2 < rows && bbox.1 <= bbox.3 && bbox.3 < cols) {
        return Err(checkpoint_err("bbox must satisfy min <= max < rows/cols"));
    }
    Ok(RecognizedStroke {
        stroke: Stroke {
            shape: shape_from_json(&shape)?,
            reversed: reversed.as_bool()?,
        },
        span: StrokeSpan {
            start: bits(&start)?,
            end: bits(&end)?,
        },
        motion: crate::motion::RecognizedMotion {
            shape: shape_from_json(&motion_shape)?,
            mask: BinaryGrid::from_mask(rows, cols, mask.bytes().map(|b| b == b'1').collect()),
            centroid: (bits(&centroid_row)?, bits(&centroid_col)?),
            bbox,
        },
    })
}

#[cfg(test)]
impl StageGraph {
    /// The framing stage's buffered report history.
    pub(crate) fn buffer(&self) -> &[TagReport] {
        &self.framing.buffer
    }

    /// Whether the framing stage currently holds an incremental cache.
    pub(crate) fn cache_is_some(&self) -> bool {
        self.framing.cache.is_some()
    }

    /// The letter stage's pending strokes (mutable, for fixtures).
    pub(crate) fn pending_strokes_mut(&mut self) -> &mut Vec<RecognizedStroke> {
        &mut self.letter.pending
    }

    /// The segmentation stage's span-dedup entries.
    pub(crate) fn reported_spans(&self) -> &[f64] {
        &self.segmentation.reported_spans
    }

    /// The span-dedup entries, mutable (for fixtures).
    pub(crate) fn reported_spans_mut(&mut self) -> &mut Vec<f64> {
        &mut self.segmentation.reported_spans
    }

    /// Records a reported span start (test shim over the private stage
    /// method).
    pub(crate) fn mark_reported(&mut self, start: f64) {
        self.segmentation.mark_reported(start);
    }

    /// Whether a span starting at `start` was already reported.
    pub(crate) fn span_already_reported(&self, start: f64) -> bool {
        self.segmentation.already_reported(start)
    }

    /// Test oracle: the incrementally maintained cache must equal a
    /// from-scratch rebuild over the current buffer — streams *and*
    /// frames, bit for bit. Rebuilds the cache first if a trim dropped
    /// it.
    pub(crate) fn assert_cache_matches_rebuild(&mut self) {
        self.framing.ensure_cache();
        let framing = &self.framing;
        let cache = framing.cache.as_ref().expect("just ensured");
        let fresh = framing.recognizer.streams(&framing.buffer);
        assert_eq!(
            cache.streams.streams(),
            &fresh,
            "cached streams diverged from a rebuild over the buffer"
        );
        if let Some(frames) = cache.frames.as_ref() {
            let start = fresh.start().expect("cache has samples");
            let end = fresh.end().expect("cache has samples");
            assert_eq!(frames.start(), start, "frame anchor diverged");
            let batch = FrameSeq::build_with_floors(
                &fresh.phase_series(framing.recognizer.layout()),
                Some(&framing.noise_floors),
                start,
                end,
                framing.recognizer.config().frame_len_s,
            );
            assert_eq!(
                frames.clone().build(end),
                batch,
                "cached frames diverged from a batch build"
            );
        } else {
            assert_eq!(fresh.start(), None, "frames missing despite samples");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::config::RfipadConfig;
    use crate::engine::normalize_events;
    use crate::layout::ArrayLayout;
    use crate::motion::RecognizedMotion;
    use std::f64::consts::TAU;

    fn quiet_obs(tag: u64, time: f64) -> TagReport {
        TagReport::synthetic(TagId(tag), time, 1.0 + tag as f64, -45.0)
    }

    fn quiet_graph(letter_gap_s: f64) -> StageGraph {
        let layout = ArrayLayout::new(1, 3, (0..3).map(TagId).collect());
        let static_obs: Vec<TagReport> = (0..40)
            .flat_map(|j| (0..3).map(move |i| quiet_obs(i, j as f64 * 0.05 + i as f64 * 0.01)))
            .collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&layout, &static_obs, &config).unwrap();
        let rec = Recognizer::builder()
            .layout(layout)
            .calibration(cal)
            .config(config)
            .build()
            .unwrap();
        StageGraph::builder()
            .recognizer(rec)
            .letter_gap_s(letter_gap_s)
            .build()
            .unwrap()
    }

    fn fake_stroke(start: f64, end: f64) -> RecognizedStroke {
        let mut mask = BinaryGrid::empty(1, 3);
        mask.set(0, 1, true);
        RecognizedStroke {
            stroke: Stroke::new(StrokeShape::Click),
            span: StrokeSpan { start, end },
            motion: RecognizedMotion {
                shape: StrokeShape::Click,
                mask,
                centroid: (0.0, 1.0),
                bbox: (0, 1, 0, 1),
            },
        }
    }

    fn sweep_layout() -> ArrayLayout {
        ArrayLayout::new(5, 5, (0..25).map(TagId).collect())
    }

    /// Recording over a 5×5 pad with a column-2 downward sweep during
    /// [2, 4) and silence until 7 s.
    fn recording() -> Vec<TagReport> {
        let l = sweep_layout();
        let mut out = Vec::new();
        for step in 0..350 {
            let t = step as f64 * 0.02;
            for r in 0..5usize {
                for c in 0..5usize {
                    let base = (r * 5 + c) as f64 * 0.37 + 0.4;
                    let cross = 2.2 + 0.36 * r as f64;
                    let near = (t - cross).abs() < 0.5 && (2.0..4.0).contains(&t);
                    let col_factor = 1.0 / (1.0 + (c as f64 - 2.0).powi(2));
                    let (wiggle, dip) = if near {
                        (
                            0.9 * col_factor * ((t - cross) * 18.0).sin(),
                            -7.0 * col_factor * (-(t - cross) * (t - cross) / 0.01).exp(),
                        )
                    } else {
                        (0.0, 0.0)
                    };
                    out.push(TagReport::synthetic(
                        l.at(r, c),
                        t + (r * 5 + c) as f64 * 1e-4,
                        (base + wiggle).rem_euclid(TAU),
                        -45.0 + dip,
                    ));
                }
            }
        }
        out
    }

    /// A graph calibrated on the quiet prefix of [`recording`].
    fn sweep_graph(out_of_order: OutOfOrderPolicy) -> StageGraph {
        let l = sweep_layout();
        let static_part: Vec<TagReport> =
            recording().into_iter().filter(|o| o.time < 2.0).collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&l, &static_part, &config).unwrap();
        let rec = Recognizer::builder()
            .layout(l)
            .calibration(cal)
            .config(config)
            .build()
            .unwrap();
        StageGraph::builder()
            .recognizer(rec)
            .letter_gap_s(1.5)
            .out_of_order(out_of_order)
            .build()
            .unwrap()
    }

    fn event_kind(e: &PipelineEvent) -> &'static str {
        match e {
            PipelineEvent::StrokeDetected { .. } => "stroke",
            PipelineEvent::LetterRecognized { .. } => "letter",
        }
    }

    fn driven_graph() -> StageGraph {
        let mut graph = quiet_graph(1.5);
        for step in 0..240u64 {
            graph.push(quiet_obs(step % 3, step as f64 / 60.0));
        }
        graph.pending_strokes_mut().push(fake_stroke(1.0, 1.4));
        graph.mark_reported(1.0);
        graph.mark_reported(2.6);
        graph
    }

    #[test]
    fn report_json_roundtrips_bit_exactly() {
        let mut r = TagReport::synthetic(TagId(7), 1.2345678901234567, 2.71311, -44.5);
        r.doppler_hz = -0.125;
        r.antenna_port = 3;
        r.channel_index = 17;
        let back = report_from_json(json::parse(&report_to_json(&r)).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.time.to_bits(), r.time.to_bits());
    }

    #[test]
    fn stroke_json_roundtrips() {
        let s = fake_stroke(1.25, 2.5);
        let back = stroke_from_json(json::parse(&stroke_to_json(&s)).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn checkpoint_json_roundtrips() {
        let graph = driven_graph();
        let checkpoint = graph.checkpoint();
        let wire = checkpoint.to_json();
        let parsed = PipelineCheckpoint::from_json(&wire).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.to_json(), wire);
    }

    #[test]
    fn restore_reproduces_the_snapshot() {
        let graph = driven_graph();
        let checkpoint = graph.checkpoint();
        let mut restored = quiet_graph(1.5);
        restored.restore_checkpoint(&checkpoint).unwrap();
        assert_eq!(restored.checkpoint(), checkpoint);
        assert_eq!(restored.buffer(), graph.buffer());
        assert_eq!(restored.reported_spans(), graph.reported_spans());
        // The rebuilt incremental state matches a from-scratch build.
        restored.assert_cache_matches_rebuild();
    }

    #[test]
    fn restored_graph_continues_like_the_original() {
        let mut original = quiet_graph(1.5);
        for step in 0..240u64 {
            original.push(quiet_obs(step % 3, step as f64 / 60.0));
        }
        let checkpoint = original.checkpoint();
        let mut restored = quiet_graph(1.5);
        restored.restore_checkpoint(&checkpoint).unwrap();
        for step in 240..480u64 {
            let o = quiet_obs(step % 3, step as f64 / 60.0);
            assert_eq!(original.push(o), restored.push(o));
        }
        assert_eq!(original.finish(), restored.finish());
        assert_eq!(original.buffer(), restored.buffer());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(PipelineCheckpoint::from_json("not json").is_err());
        assert!(PipelineCheckpoint::from_json("{}").is_err());
        assert!(PipelineCheckpoint::from_json("{\"version\":1}").is_err());
        // Near-misses a lenient splitter accepts: an unquoted key, a `+`,
        // a duplicate key, a trailing comma, and trailing bytes.
        let json = driven_graph().checkpoint().to_json();
        assert!(PipelineCheckpoint::from_json(&json).is_ok());
        for bad in [
            json.replacen("\"version\":1", "version:1", 1),
            json.replacen("\"version\":1", "\"version\":+1", 1),
            json.replacen("\"version\":1", "\"version\":1,\"version\":1", 1),
            json.replacen("\"grammar\":{}", "\"grammar\":{},", 1),
            format!("{json}{{}}"),
        ] {
            let err = PipelineCheckpoint::from_json(&bad).unwrap_err();
            assert!(matches!(err, RfipadError::Checkpoint(_)), "{err}");
        }
    }

    /// Applies `edit` to the JSON of a valid checkpoint, then expects
    /// parse + restore to refuse it as a checkpoint error.
    fn assert_restore_refuses(edit: impl Fn(&str) -> String) {
        let json = driven_graph().checkpoint().to_json();
        let edited = edit(&json);
        assert_ne!(edited, json, "edit did not apply");
        let restored = PipelineCheckpoint::from_json(&edited)
            .and_then(|c| quiet_graph(1.5).restore_checkpoint(&c));
        assert!(
            matches!(restored, Err(RfipadError::Checkpoint(_))),
            "{restored:?}"
        );
    }

    #[test]
    fn restore_rejects_overflowing_mask_dimensions() {
        assert_restore_refuses(|json| {
            json.replacen(
                "\"rows\":1,\"cols\":3,\"mask\":\"010\"",
                "\"rows\":4294967296,\"cols\":4294967296,\"mask\":\"\"",
                1,
            )
        });
    }

    #[test]
    fn restore_rejects_inverted_bbox() {
        assert_restore_refuses(|json| json.replacen("\"bbox\":[0,1,0,1]", "\"bbox\":[0,1,0,0]", 1));
    }

    /// Rewrites the first `"key":<bits of from>` in `json` to the bits of
    /// `to`.
    fn replace_bits(json: &str, key: &str, from: f64, to: f64) -> String {
        let field = |v: f64| format!("\"{key}\":{}", v.to_bits());
        json.replacen(&field(from), &field(to), 1)
    }

    #[test]
    fn restore_rejects_bad_buffer_times() {
        let graph = driven_graph();
        let first = graph.buffer()[0].time;
        let last = graph.buffer().last().unwrap().time;
        // NaN, later than the next report, and newer than the gate.
        assert_restore_refuses(|json| replace_bits(json, "time_bits", first, f64::NAN));
        assert_restore_refuses(|json| replace_bits(json, "time_bits", first, 2.0));
        assert_restore_refuses(|json| replace_bits(json, "last_time_bits", last, last - 1.0));
    }

    #[test]
    fn restore_rejects_foreign_versions_and_fields() {
        let json = driven_graph().checkpoint().to_json();
        let bumped = json.replacen("\"version\":1", "\"version\":2", 1);
        let err = PipelineCheckpoint::from_json(&bumped).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let extended = json.replacen("{\"version\"", "{\"surprise\":4,\"version\"", 1);
        assert!(PipelineCheckpoint::from_json(&extended).is_err());
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        let checkpoint = driven_graph().checkpoint();
        let mut other_gap = quiet_graph(2.0);
        let err = other_gap.restore_checkpoint(&checkpoint).unwrap_err();
        assert!(err.to_string().contains("configuration"), "{err}");
    }

    #[test]
    fn restore_rejects_missing_and_unknown_stages() {
        let mut checkpoint = driven_graph().checkpoint();
        let dropped = checkpoint.stages.pop().unwrap();
        let mut graph = quiet_graph(1.5);
        assert!(graph.restore_checkpoint(&checkpoint).is_err());
        checkpoint.stages.push(dropped);
        checkpoint.stages.push(StageState::new("mystery", "{}"));
        assert!(graph.restore_checkpoint(&checkpoint).is_err());
    }

    #[test]
    fn restore_rejects_corrupted_stage_state() {
        let graph = driven_graph();
        // Flip one bit of the framing buffer's first timestamp.
        let first = graph.buffer()[0].time;
        let flipped = f64::from_bits(first.to_bits() ^ 1);
        let corrupted = replace_bits(&graph.checkpoint().to_json(), "time_bits", first, flipped);
        let checkpoint = PipelineCheckpoint::from_json(&corrupted).unwrap();
        let mut restored = quiet_graph(1.5);
        let err = restored.restore_checkpoint(&checkpoint).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn graph_is_itself_a_stage() {
        let graph = driven_graph();
        let state = graph.snapshot();
        assert_eq!(state.stage(), "graph");
        let mut restored = quiet_graph(1.5);
        Stage::restore(&mut restored, &state).unwrap();
        assert_eq!(restored.checkpoint(), graph.checkpoint());
        let mut events = Vec::new();
        Stage::push(&mut restored, quiet_obs(0, 9.0), &mut events);
        Stage::flush(&mut restored, &mut events);
    }

    #[test]
    fn builder_validates_like_the_pipeline() {
        assert!(StageGraph::builder().build().is_err());
        let graph = quiet_graph(1.5);
        for bad_gap in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(StageGraph::builder()
                .recognizer(graph.recognizer().clone())
                .letter_gap_s(bad_gap)
                .build()
                .is_err());
        }
        let defaulted = StageGraph::builder()
            .recognizer(graph.recognizer().clone())
            .build()
            .unwrap();
        assert_eq!(defaulted.letter_gap_s(), 1.5);
    }

    #[test]
    fn stroke_and_letter_events_emitted_in_order() {
        let mut g = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut events = Vec::new();
        for o in recording() {
            events.extend(g.push(o));
        }
        events.extend(g.finish());
        let strokes = events
            .iter()
            .filter(|e| matches!(e, PipelineEvent::StrokeDetected { .. }))
            .count();
        assert_eq!(strokes, 1, "events: {}", events.len());
        let letters: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                PipelineEvent::LetterRecognized {
                    letter, strokes, ..
                } => Some((letter, strokes.len())),
                _ => None,
            })
            .collect();
        assert_eq!(letters.len(), 1);
        // A lone vertical bar is the letter I.
        assert_eq!(letters[0], (&Some('I'), 1));
    }

    #[test]
    fn stroke_reported_before_letter() {
        let mut g = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut kinds = Vec::new();
        for o in recording() {
            kinds.extend(g.push(o).iter().map(event_kind));
        }
        kinds.extend(g.finish().iter().map(event_kind));
        assert_eq!(kinds, vec!["stroke", "letter"]);
    }

    #[test]
    fn response_times_are_small() {
        let mut g = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut response = None;
        for o in recording() {
            for e in g.push(o) {
                if let PipelineEvent::StrokeDetected {
                    response_time_s, ..
                } = e
                {
                    response = Some(response_time_s);
                }
            }
        }
        g.finish();
        let r = response.expect("stroke reported");
        // The paper reports < 0.1 s on a 2013 laptop; allow headroom for
        // debug builds.
        assert!(r < 2.0, "response {r}");
        assert!(r > 0.0);
    }

    #[test]
    fn quiet_stream_emits_nothing() {
        let mut g = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut events = Vec::new();
        for o in recording().into_iter().filter(|o| o.time < 1.8) {
            events.extend(g.push(o));
        }
        events.extend(g.finish());
        assert!(events.is_empty());
    }

    #[test]
    fn finish_is_idempotent() {
        // Stop the feed right after the stroke, before any silence: the
        // whole stroke + letter decision then rides on finish().
        let mut g = sweep_graph(OutOfOrderPolicy::Clamp);
        for o in recording().into_iter().filter(|o| o.time < 4.2) {
            g.push(o);
        }
        let first = g.finish();
        assert!(
            first
                .iter()
                .any(|e| matches!(e, PipelineEvent::LetterRecognized { .. })),
            "finish closes the pending letter: {first:?}"
        );
        assert!(g.finish().is_empty(), "second finish re-emitted events");
        assert!(g.finish().is_empty());
    }

    #[test]
    fn push_after_finish_resumes_the_stream() {
        let mut g = sweep_graph(OutOfOrderPolicy::Clamp);
        let all = recording();
        for o in all.iter().filter(|o| o.time < 5.0) {
            g.push(*o);
        }
        let mid = g.finish();
        assert!(mid
            .iter()
            .any(|e| matches!(e, PipelineEvent::LetterRecognized { .. })));
        // The stream resumes: further quiet traffic is consumed normally
        // and a later finish does not duplicate the closed letter.
        for o in all.iter().filter(|o| o.time >= 5.0) {
            g.push(*o);
        }
        let tail = g.finish();
        assert!(
            !tail.iter().any(|e| matches!(
                e,
                PipelineEvent::LetterRecognized {
                    letter: Some(_),
                    ..
                }
            )),
            "resumed quiet tail re-reported the letter: {tail:?}"
        );
    }

    #[test]
    fn push_into_batch_and_push_agree() {
        let mut serial = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut serial_events = Vec::new();
        for o in recording() {
            serial_events.extend(serial.push(o));
        }
        serial_events.extend(serial.finish());

        let mut batched = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut batched_events = Vec::new();
        for chunk in recording().chunks(64) {
            batched.push_batch(chunk.iter().copied(), &mut batched_events);
        }
        batched.finish_into(&mut batched_events);

        // Response times are wall-clock and differ run to run; the
        // recognized content must be identical.
        normalize_events(&mut serial_events);
        normalize_events(&mut batched_events);
        assert_eq!(serial_events, batched_events);
    }

    #[test]
    fn cache_invalidated_by_letter_close_then_resumes() {
        let mut g = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut letter_seen = false;
        for o in recording() {
            let events = g.push(o);
            if events
                .iter()
                .any(|e| matches!(e, PipelineEvent::LetterRecognized { .. }))
            {
                // The letter close trims the buffer and must drop the
                // cache with it, in the same tick.
                assert!(!g.cache_is_some(), "letter-close trim left a stale cache");
                letter_seen = true;
            }
        }
        assert!(letter_seen, "recording closes a letter mid-feed");
        // Later ticks rebuild the cache from the trimmed buffer and then
        // maintain it incrementally; it must match a rebuild exactly.
        assert!(g.cache_is_some(), "cache not rebuilt after the letter");
        g.assert_cache_matches_rebuild();
        // finish-then-resume: the flush and the resumed traffic keep the
        // cache in step with the buffer.
        g.finish();
        for mut o in recording().into_iter().filter(|o| o.time < 1.0) {
            o.time += 8.0;
            g.push(o);
        }
        g.assert_cache_matches_rebuild();
    }

    #[test]
    fn cache_consistent_under_out_of_order_clamp() {
        let mut clamping = sweep_graph(OutOfOrderPolicy::Clamp);
        for (i, mut o) in recording().into_iter().enumerate() {
            if i % 8 == 3 {
                o.time -= 0.04;
            }
            clamping.push(o);
        }
        assert!(clamping.out_of_order_count() > 0, "stale reports seen");
        clamping.assert_cache_matches_rebuild();
    }

    #[test]
    fn cache_consistent_under_out_of_order_drop() {
        let mut dropping = sweep_graph(OutOfOrderPolicy::Drop);
        for (i, mut o) in recording().into_iter().enumerate() {
            if i % 10 == 7 {
                o.time -= 0.05;
            }
            dropping.push(o);
        }
        assert!(dropping.out_of_order_count() > 0, "stale reports seen");
        dropping.assert_cache_matches_rebuild();
    }

    #[test]
    fn out_of_order_clamped_and_counted() {
        let mut clamping = sweep_graph(OutOfOrderPolicy::Clamp);
        let mut events = Vec::new();
        for (i, mut o) in recording().into_iter().enumerate() {
            // A second antenna's reports lag by 40 ms every eighth read.
            if i % 8 == 3 {
                o.time -= 0.04;
            }
            events.extend(clamping.push(o));
        }
        events.extend(clamping.finish());
        assert!(clamping.out_of_order_count() > 0, "stale reports seen");
        // Clamped timestamps never run backwards inside the buffer.
        assert!(clamping.buffer().windows(2).all(|w| w[0].time <= w[1].time));
        // The sweep still resolves to the same letter.
        assert!(events.iter().any(|e| matches!(
            e,
            PipelineEvent::LetterRecognized {
                letter: Some('I'),
                ..
            }
        )));
    }

    #[test]
    fn out_of_order_drop_discards_stale_reports() {
        let mut dropping = sweep_graph(OutOfOrderPolicy::Drop);
        // Stop before the letter closes, so neither a letter-close nor a
        // retention trim shortens the buffer: every admitted report must
        // still be in it.
        let reports: Vec<TagReport> = recording().into_iter().filter(|o| o.time < 3.5).collect();
        let fed = reports.len() as u64;
        for (i, mut o) in reports.into_iter().enumerate() {
            if i % 10 == 7 {
                o.time -= 0.05;
            }
            dropping.push(o);
        }
        assert!(dropping.out_of_order_count() > 0);
        assert_eq!(
            dropping.buffer().len() as u64,
            fed - dropping.out_of_order_count(),
            "dropped reports must not enter the buffer"
        );
        assert!(dropping.buffer().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn non_finite_times_are_dropped_under_both_policies() {
        for policy in [OutOfOrderPolicy::Clamp, OutOfOrderPolicy::Drop] {
            let mut clean = sweep_graph(policy);
            let mut expected = Vec::new();
            clean.push_batch(recording(), &mut expected);
            clean.finish_into(&mut expected);
            let mut hostile = sweep_graph(policy);
            let mut events = Vec::new();
            for (i, o) in recording().into_iter().enumerate() {
                if i == 2_500 {
                    // Mid-recording, inside the stroke: NaN first, which
                    // used to panic the stream builders.
                    for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                        hostile.push_into(TagReport { time, ..o }, &mut events);
                    }
                }
                hostile.push_into(o, &mut events);
            }
            hostile.finish_into(&mut events);
            assert_eq!(hostile.out_of_order_count(), 3, "{policy:?}");
            normalize_events(&mut expected);
            normalize_events(&mut events);
            assert_eq!(events, expected, "{policy:?}");
        }
    }

    #[test]
    fn buffer_stays_bounded_over_long_quiet_runs() {
        let mut graph = quiet_graph(1.5);
        // Two simulated minutes of quiet traffic at ~60 reads/s (enough
        // to overflow an unbounded buffer four times over).
        let mut max_len = 0usize;
        for step in 0..7_200u64 {
            let t = step as f64 / 60.0;
            graph.push(quiet_obs(step % 3, t));
            max_len = max_len.max(graph.buffer().len());
        }
        // 30 s of history at 60 reads/s is 1800 reads; allow slack for the
        // trim hysteresis.
        assert!(
            graph.buffer().len() < 2_400,
            "buffer grew to {}",
            graph.buffer().len()
        );
        assert!(max_len < 2_800, "peak buffer {}", max_len);
    }

    #[test]
    fn trimming_drops_history_older_than_window() {
        let mut graph = quiet_graph(1.5);
        // One simulated minute of quiet traffic: the window is 30 s, so
        // the earliest reads must be long gone by the end.
        let mut last_t = 0.0;
        for step in 0..3_600u64 {
            last_t = step as f64 / 60.0;
            graph.push(quiet_obs(step % 3, last_t));
        }
        let first = graph.buffer().first().expect("buffer non-empty").time;
        assert!(first > 2.0, "old history survived: first read at {first}");
        // Nothing older than the window plus the trim hysteresis remains.
        assert!(
            first >= last_t - MAX_BUFFER_S - 5.0 - 1e-9,
            "first {first} vs now {last_t}"
        );
    }

    #[test]
    fn pending_letter_holds_history_past_the_window() {
        // A letter gap far longer than the run keeps the stroke pending
        // throughout; its history must survive even past MAX_BUFFER_S.
        let mut graph = quiet_graph(1_000.0);
        graph.pending_strokes_mut().push(fake_stroke(2.0, 3.0));
        let mut last_t = 0.0;
        for step in 0..2_400u64 {
            last_t = step as f64 / 60.0;
            graph.push(quiet_obs(step % 3, last_t));
        }
        assert!(last_t > MAX_BUFFER_S + 5.0, "run long enough to trim");
        let first = graph.buffer().first().expect("buffer non-empty").time;
        // Retention is anchored 1 s before the pending stroke, not at the
        // rolling window edge.
        assert!(
            first <= 2.0,
            "pending letter history trimmed: first {first}"
        );
        assert!(!graph.pending_strokes_mut().is_empty());
    }

    #[test]
    fn cache_consistent_across_retention_trims() {
        let mut graph = quiet_graph(1.5);
        let mut trims = 0usize;
        for step in 0..3_600u64 {
            let t = step as f64 / 60.0;
            let before = graph.buffer().len();
            graph.push(quiet_obs(step % 3, t));
            if graph.buffer().len() <= before {
                trims += 1;
            }
            // Spot-check: the incrementally maintained cache never drifts
            // from a rebuild over the (possibly trimmed) buffer.
            if step % 600 == 599 {
                graph.assert_cache_matches_rebuild();
            }
        }
        assert!(trims > 0, "run long enough to trim history");
        graph.assert_cache_matches_rebuild();
    }

    #[test]
    fn reported_spans_stay_sorted() {
        let mut graph = quiet_graph(1.5);
        // Out-of-sorted-order marks must land sorted (the dedup relies on
        // partition_point).
        graph.mark_reported(2.5);
        graph.mark_reported(1.0);
        graph.mark_reported(4.0);
        graph.mark_reported(1.7);
        assert_eq!(graph.reported_spans(), vec![1.0, 1.7, 2.5, 4.0]);
        assert!(graph.span_already_reported(1.2));
        assert!(graph.span_already_reported(2.6));
        assert!(!graph.span_already_reported(3.2));
        assert!(!graph.span_already_reported(0.5));
    }

    #[test]
    fn reported_spans_trimmed_with_buffer() {
        let mut graph = quiet_graph(1.5);
        // Simulate spans reported early in a run whose letter never closed
        // (e.g. unclassifiable blips): their dedup entries must not leak.
        graph.reported_spans_mut().push(1.0);
        graph.reported_spans_mut().push(2.5);
        let mut last_t = 0.0;
        for step in 0..3_600u64 {
            last_t = step as f64 / 60.0;
            graph.push(quiet_obs(step % 3, last_t));
        }
        assert!(
            graph
                .reported_spans()
                .iter()
                .all(|&s| s >= last_t - MAX_BUFFER_S - 5.0),
            "stale reported spans retained: {:?}",
            graph.reported_spans()
        );
    }
}
