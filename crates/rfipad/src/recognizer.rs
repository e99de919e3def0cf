//! The RFIPad recognizer: report stream → strokes → letter.

use crate::accumulate::accumulative_image;
use crate::calibration::Calibration;
use crate::config::RfipadConfig;
use crate::direction::DirectionEstimator;
use crate::error::RfipadError;
use crate::grammar::{GrammarTree, ObservedStroke};
use crate::layout::ArrayLayout;
use crate::motion::{MotionRecognizer, RecognizedMotion};
use crate::segmentation::{Segmentation, Segmenter, StrokeSpan};
use crate::stage::{PipelineEvent, StageGraph};
use crate::streams::TagStreams;
use hand_kinematics::stroke::Stroke;
use rfid_gen2::report::TagReport;
use serde::{Deserialize, Serialize};

/// One fully recognized stroke.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecognizedStroke {
    /// Shape + direction.
    pub stroke: Stroke,
    /// Time span the stroke was detected over.
    pub span: StrokeSpan,
    /// The image evidence (mask, centroid, bbox).
    pub motion: RecognizedMotion,
}

impl RecognizedStroke {
    /// Converts to the grammar's observation form, normalizing grid
    /// coordinates into the unit pad box.
    pub fn to_observed(&self, layout: &ArrayLayout) -> ObservedStroke {
        let rows = (layout.rows() - 1).max(1) as f64;
        let cols = (layout.cols() - 1).max(1) as f64;
        let (min_r, min_c, max_r, max_c) = self.motion.bbox;
        ObservedStroke {
            stroke: self.stroke,
            centroid: (self.motion.centroid.0 / rows, self.motion.centroid.1 / cols),
            extent: ((max_r - min_r) as f64 / rows, (max_c - min_c) as f64 / cols),
        }
    }
}

/// Result of recognizing one recording
/// ([`Recognizer::recognize_session`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResult {
    /// Recognized strokes in time order.
    pub strokes: Vec<RecognizedStroke>,
    /// The letter deduced at the recording's last letter close, if its
    /// strokes match the grammar.
    pub letter: Option<char>,
}

/// Validating builder for [`Recognizer`], the supported way to construct
/// one.
///
/// ```no_run
/// # fn demo(layout: rfipad::ArrayLayout, cal: rfipad::Calibration)
/// #     -> Result<(), rfipad::RfipadError> {
/// let recognizer = rfipad::Recognizer::builder()
///     .layout(layout)
///     .calibration(cal)
///     .build()?; // config defaults to RfipadConfig::default()
/// # let _ = recognizer; Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to obtain the recognizer"]
pub struct RecognizerBuilder {
    layout: Option<ArrayLayout>,
    calibration: Option<Calibration>,
    config: Option<RfipadConfig>,
}

impl RecognizerBuilder {
    /// The tag-array layout (required).
    pub fn layout(mut self, layout: ArrayLayout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// The static calibration for that layout (required).
    pub fn calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Pipeline configuration (defaults to [`RfipadConfig::default`]).
    pub fn config(mut self, config: RfipadConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Validates the configuration and assembles the recognizer.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::InvalidConfig`] if layout or calibration is
    /// missing, or if the configuration fails [`RfipadConfig::validate`].
    pub fn build(self) -> Result<Recognizer, RfipadError> {
        let layout = self.layout.ok_or_else(|| {
            RfipadError::invalid_field("RecognizerBuilder", "layout", "required but not set")
        })?;
        let calibration = self.calibration.ok_or_else(|| {
            RfipadError::invalid_field("RecognizerBuilder", "calibration", "required but not set")
        })?;
        let config = self.config.unwrap_or_default();
        config.validate().map_err(|e| match e {
            RfipadError::InvalidConfig(msg) => {
                RfipadError::invalid_field("RecognizerBuilder", "config", msg)
            }
            other => other,
        })?;
        Ok(Recognizer {
            motion: MotionRecognizer::new(config.clone()),
            direction: DirectionEstimator::new(config.clone()),
            segmenter: Segmenter::new(config.clone()),
            grammar: GrammarTree::standard(),
            layout,
            calibration,
            config,
        })
    }
}

/// The full RFIPad recognizer.
#[derive(Debug, Clone)]
pub struct Recognizer {
    layout: ArrayLayout,
    calibration: Calibration,
    config: RfipadConfig,
    motion: MotionRecognizer,
    direction: DirectionEstimator,
    segmenter: Segmenter,
    grammar: GrammarTree,
}

impl Recognizer {
    /// Starts a validating builder ([`RecognizerBuilder`]).
    pub fn builder() -> RecognizerBuilder {
        RecognizerBuilder::default()
    }

    /// The layout in use.
    pub fn layout(&self) -> &ArrayLayout {
        &self.layout
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The configuration in use.
    pub fn config(&self) -> &RfipadConfig {
        &self.config
    }

    /// Builds calibrated (centred, unwrapped) streams from raw
    /// observations. Stream centring is always applied — segmentation
    /// cannot function on raw phase offsets; the `suppress_diversity`
    /// ablation instead disables the Eq. 9–10 weighting and noise-floor
    /// correction of the accumulative image (the paper's Fig. 7(a) vs
    /// 7(b) comparison).
    pub fn streams(&self, observations: &[TagReport]) -> TagStreams {
        TagStreams::build(&self.layout, Some(&self.calibration), observations)
    }

    /// Recognizes the motion drawn during an explicit time span.
    ///
    /// Shape comes primarily from the *temporal path* — the intensity
    /// centroids of overlapping sub-spans trace where the hand went, which
    /// separates arcs, lines, and clicks robustly — with the image-template
    /// classifier as fallback. Direction comes from the RSS-trough
    /// estimator (§III-B), falling back to the path's own travel direction
    /// when too few troughs exist.
    ///
    /// Returns `None` when the span contains no classifiable foreground,
    /// as an empty or inverted span never does.
    pub fn recognize_span(
        &self,
        streams: &TagStreams,
        span: StrokeSpan,
    ) -> Option<RecognizedStroke> {
        let cal = self.config.suppress_diversity.then_some(&self.calibration);
        let image = accumulative_image(&self.layout, streams, cal, span.start, span.end).ok()?;
        let mut motion = self.motion.recognize(&image)?;

        // Temporal path classification: intensity centroids of sub-spans
        // trace the pen at sub-cell accuracy. A genuinely compact image is
        // a click regardless of centroid jitter.
        let (min_r, min_c, max_r, max_c) = motion.bbox;
        let path = self.span_path(streams, span);
        let path_points: Vec<(f64, f64)> = path.iter().map(|s| s.point).collect();
        // The click verdict of the image stands only while the path agrees
        // the pen barely travelled — an edge stroke can light a compact
        // mask yet sweep several cells.
        let path_chord = match (path_points.first(), path_points.last()) {
            (Some(a), Some(b)) => ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt(),
            _ => 0.0,
        };
        let compact_click = motion.shape == hand_kinematics::stroke::StrokeShape::Click
            && max_r - min_r <= 1
            && max_c - min_c <= 1
            && path_chord < 1.2;
        let path_hint = if compact_click {
            None
        } else {
            crate::motion::classify_path(&path_points)
        };
        let path_reversed = match path_hint {
            Some((shape, reversed)) => {
                // Chord direction survives centroid noise at any stroke
                // length, but a *bow* needs well-sampled sub-windows: arc
                // verdicts from paths of quick strokes are noise, so the
                // image template keeps shape authority there.
                use hand_kinematics::stroke::StrokeShape::{ArcLeft, ArcRight};
                let path_arc = matches!(shape, ArcLeft | ArcRight);
                if !path_arc || span.duration() >= 1.05 {
                    motion.shape = shape;
                }
                reversed
            }
            None => false,
        };

        let direction =
            self.direction
                .estimate(&motion, &self.layout, streams, span.start, span.end);
        // Click promotion: a push toward one tag detunes exactly that tag
        // (one deep RSS trough) and lights a compact region; a sweep
        // crosses several tags and troughs each in turn. This signature is
        // robust even when the phase image is weak (e.g. the overhead LOS
        // geometry, where the reflection rides nearly in phase with the
        // direct path). Troughs depend on the mask, not the shape, so the
        // estimate above stands: at most one trough, and a click is never
        // reversed.
        let compact_region = max_r - min_r <= 2 && max_c - min_c <= 2;
        if motion.shape != hand_kinematics::stroke::StrokeShape::Click
            && direction.troughs.len() <= 1
            && compact_region
            && path_chord < 1.5
        {
            motion.shape = hand_kinematics::stroke::StrokeShape::Click;
        }
        let stroke = if direction.troughs.len() >= 2 {
            direction.stroke
        } else if path_reversed && motion.shape.is_directional() {
            Stroke::reversed(motion.shape)
        } else {
            Stroke::new(motion.shape)
        };
        Some(RecognizedStroke {
            stroke,
            span,
            motion,
        })
    }

    /// Intensity centroids of overlapping sub-spans of `span`: a coarse
    /// trace of the hand path over the pad, tagged with span fractions.
    /// Also the basis of the paper's Fig. 25 trajectory comparison.
    pub fn span_path(
        &self,
        streams: &TagStreams,
        span: StrokeSpan,
    ) -> Vec<crate::motion::PathSample> {
        // Each sub-window needs ≥ ~0.35 s so every tag gets a few reads at
        // Gen2 rates; shorter strokes get fewer, wider windows. Fewer than
        // three windows means no usable path — the caller falls back to
        // image-only classification.
        const LONG: [(f64, f64); 5] = [
            (0.0, 0.34),
            (0.165, 0.505),
            (0.33, 0.67),
            (0.495, 0.835),
            (0.66, 1.0),
        ];
        const SHORT: [(f64, f64); 4] = [(0.0, 0.4), (0.2, 0.6), (0.4, 0.8), (0.6, 1.0)];
        let duration = span.duration();
        let windows: &[(f64, f64)] = if duration >= 1.6 {
            &LONG
        } else if duration >= 0.55 {
            &SHORT
        } else {
            &[]
        };
        let cal = self.config.suppress_diversity.then_some(&self.calibration);
        let mut path = Vec::with_capacity(windows.len());
        for &(a, b) in windows {
            let Ok(img) = accumulative_image(
                &self.layout,
                streams,
                cal,
                span.start + a * duration,
                span.start + b * duration,
            ) else {
                continue;
            };
            let peak = sigproc::stats::max(img.data());
            if !peak.is_finite() || peak <= 0.0 {
                continue;
            }
            let mut wr = 0.0;
            let mut wc = 0.0;
            let mut total = 0.0;
            for r in 0..img.rows() {
                for c in 0..img.cols() {
                    let v = img.get(r, c);
                    if v >= 0.4 * peak {
                        wr += v * r as f64;
                        wc += v * c as f64;
                        total += v;
                    }
                }
            }
            if total > 0.0 {
                path.push(crate::motion::PathSample {
                    frac: 0.5 * (a + b),
                    point: (wr / total, wc / total),
                });
            }
        }
        path
    }

    /// Segments already-built streams in one pass over the whole
    /// recording — the segmentation the Fig. 9/22 diagnostics print and
    /// score.
    pub fn segment(&self, streams: &TagStreams) -> Segmentation {
        self.segmenter
            .segment(&self.layout, streams, &self.calibration)
    }

    /// Segments an already-built frame sequence with the calibrated
    /// thresholds, reusing `scratch` and `out` so the online hot path
    /// scores frames without allocating. Given the frames
    /// [`segment`](Self::segment) would build internally, the result is
    /// identical.
    pub fn segment_frames_into(
        &self,
        frames: &sigproc::frames::FrameSeq,
        scratch: &mut sigproc::kernel::Scratch,
        out: &mut Segmentation,
    ) {
        self.segmenter.segment_frames_into(
            frames,
            self.calibration.activity_threshold(&self.config),
            self.calibration.rms_level_threshold(&self.config),
            scratch,
            out,
        )
    }

    /// Per-stream noise floors in layout order — the `floors` argument the
    /// calibrated segmentation applies during framing.
    pub fn noise_floors(&self) -> Vec<f64> {
        self.calibration.noise_floors(&self.layout, &self.config)
    }

    /// Recognizes a whole recording by replaying it through a
    /// [`StageGraph`] with the default letter gap, so a recording and a
    /// live stream go through the same code. Keeps every detected stroke
    /// in order; a recording that holds several letters yields the last
    /// one. For per-letter events, drive a [`StageGraph`] directly.
    pub fn recognize_session(&self, observations: &[TagReport]) -> SessionResult {
        let mut graph = StageGraph::builder()
            .recognizer(self.clone())
            .build()
            .expect("the default letter gap is valid");
        let mut events = Vec::new();
        graph.push_batch(observations, &mut events);
        graph.finish_into(&mut events);
        let mut result = SessionResult {
            strokes: Vec::new(),
            letter: None,
        };
        for event in events {
            match event {
                PipelineEvent::StrokeDetected { stroke, .. } => result.strokes.push(stroke),
                PipelineEvent::LetterRecognized { letter, .. } => result.letter = letter,
            }
        }
        result
    }

    /// The grammar tree (for online prefix queries).
    pub fn grammar(&self) -> &GrammarTree {
        &self.grammar
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_gen2::report::TagId;
    use std::f64::consts::TAU;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(5, 5, (0..25).map(TagId).collect())
    }

    fn obs(tag: TagId, time: f64, phase: f64, rss: f64) -> TagReport {
        TagReport::synthetic(tag, time, phase.rem_euclid(TAU), rss)
    }

    /// Synthetic recording: static 0–2 s, then the hand sweeps down column
    /// 2 during 2–4 s (phases of column-2 tags wiggle in sequence and their
    /// RSS dips in row order), then static 4–5 s.
    fn column_sweep_recording() -> Vec<TagReport> {
        let l = layout();
        let mut out = Vec::new();
        for step in 0..250 {
            let t = step as f64 * 0.02;
            for r in 0..5usize {
                for c in 0..5usize {
                    let id = l.at(r, c);
                    let base = (r * 5 + c) as f64 * 0.37 + 0.4;
                    // The hand crosses row r of column 2 at 2.2 + 0.36 r.
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
                    out.push(obs(
                        id,
                        t + (r * 5 + c) as f64 * 1e-4,
                        base + wiggle,
                        -45.0 + dip,
                    ));
                }
            }
        }
        out
    }

    fn recognizer() -> Recognizer {
        let l = layout();
        // Calibrate on the static prefix.
        let recording = column_sweep_recording();
        let static_part: Vec<TagReport> =
            recording.iter().filter(|o| o.time < 2.0).copied().collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&l, &static_part, &config).expect("calibration");
        Recognizer::builder()
            .layout(l)
            .calibration(cal)
            .config(config)
            .build()
            .expect("valid config")
    }

    #[test]
    fn column_sweep_recognized_as_downward_bar() {
        let rec = recognizer();
        let recording = column_sweep_recording();
        let result = rec.recognize_session(&recording);
        assert_eq!(result.strokes.len(), 1, "strokes {:?}", result.strokes);
        let stroke = &result.strokes[0];
        assert_eq!(
            stroke.stroke,
            Stroke::new(hand_kinematics::stroke::StrokeShape::VLine),
            "got {:?}",
            stroke.stroke
        );
        // Centred on column 2.
        assert!((stroke.motion.centroid.1 - 2.0).abs() < 0.7);
        // Span roughly covers 2–4 s.
        assert!(stroke.span.start > 1.5 && stroke.span.start < 2.7);
        assert!(stroke.span.end > 3.3 && stroke.span.end < 4.5);
    }

    #[test]
    fn static_recording_recognizes_nothing() {
        let rec = recognizer();
        let recording: Vec<TagReport> = column_sweep_recording()
            .into_iter()
            .filter(|o| o.time < 2.0)
            .collect();
        let result = rec.recognize_session(&recording);
        assert!(result.strokes.is_empty());
        assert_eq!(result.letter, None);
    }

    #[test]
    fn invalid_config_rejected() {
        let rec = recognizer();
        let bad = RfipadConfig {
            frame_len_s: -1.0,
            ..RfipadConfig::default()
        };
        assert!(Recognizer::builder()
            .layout(rec.layout().clone())
            .calibration(rec.calibration().clone())
            .config(bad)
            .build()
            .is_err());
    }

    #[test]
    fn builder_requires_layout_and_calibration() {
        let rec = recognizer();
        assert!(Recognizer::builder().build().is_err());
        assert!(Recognizer::builder()
            .layout(rec.layout().clone())
            .build()
            .is_err());
        // Config is optional and defaults to the paper's parameters.
        let built = Recognizer::builder()
            .layout(rec.layout().clone())
            .calibration(rec.calibration().clone())
            .build()
            .expect("default config valid");
        assert_eq!(built.config(), &RfipadConfig::default());
    }

    #[test]
    fn inverted_span_recognizes_nothing() {
        let rec = recognizer();
        let streams = rec.streams(&column_sweep_recording());
        let span = rec.segment(&streams).spans[0];
        assert!(rec.recognize_span(&streams, span).is_some());
        let inverted = StrokeSpan {
            start: span.end,
            end: span.start,
        };
        assert_eq!(rec.recognize_span(&streams, inverted), None);
    }

    #[test]
    fn clones_serve_the_templates_the_original_drew() {
        let rec = recognizer();
        let streams = rec.streams(&column_sweep_recording());
        let span = rec.segment(&streams).spans[0];
        let original = rec.recognize_span(&streams, span);
        let drawn = rec.motion.templates.len();
        assert!(drawn > 0, "recognition draws templates");
        let clone = rec.clone();
        assert!(std::sync::Arc::ptr_eq(
            &rec.motion.templates,
            &clone.motion.templates
        ));
        assert_eq!(clone.recognize_span(&streams, span), original);
        assert_eq!(clone.motion.templates.len(), drawn, "the clone redrew");
    }

    #[test]
    fn observed_normalization() {
        let rec = recognizer();
        let recording = column_sweep_recording();
        let result = rec.recognize_session(&recording);
        let observed = result.strokes[0].to_observed(rec.layout());
        assert!((observed.centroid.1 - 0.5).abs() < 0.2, "{observed:?}");
        assert!(observed.extent.0 > 0.5, "vertical extent {observed:?}");
    }
}
