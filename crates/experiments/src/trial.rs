//! Trial runner: calibrate a deployment, write strokes/letters over it, and
//! score the recognizer — the machinery behind every table and figure.

use crate::fanout;
use crate::setup::Deployment;
use hand_kinematics::stroke::Stroke;
use hand_kinematics::trajectory::HandTarget;
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::{Writer, WritingSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rf_sim::targets::MovingTarget;
use rfid_gen2::reader::{Gen2Reader, ReaderConfig};
use rfid_gen2::report::TagReport;
use rfipad::prelude::*;
use std::sync::Arc;

/// Seconds of static recording used for calibration (the paper samples each
/// tag ~100 times; at ~8 reads/s/tag this takes a few seconds).
pub const CALIBRATION_SECS: f64 = 6.0;

/// Idle margin recorded before and after each writing session.
pub const SESSION_MARGIN_SECS: f64 = 1.2;

/// Idle gap that closes a letter in trial recognition: the [`StageGraph`]
/// default that [`Recognizer::recognize_session`] replays with. A trial's
/// letter closes inside the recording when its idle tail outlasts the
/// gap, and otherwise at the end-of-recording flush.
pub const LETTER_GAP_SECS: f64 = 1.5;

/// A calibrated test bench: deployment + reader + recognizer.
#[derive(Debug)]
pub struct Bench {
    /// The deployment under test.
    pub deployment: Deployment,
    /// The simulated Gen2 reader.
    pub reader: Gen2Reader,
    /// The calibrated recognizer.
    pub recognizer: Recognizer,
}

impl Bench {
    /// Builds and calibrates a bench: runs the reader over the static scene
    /// for [`CALIBRATION_SECS`] and derives the calibration from the
    /// resulting report stream.
    ///
    /// # Panics
    ///
    /// Panics if calibration fails (e.g. a tag was unreadable throughout —
    /// a broken deployment). Use [`Bench::try_calibrate`] to handle the
    /// error instead.
    pub fn calibrate(deployment: Deployment, config: RfipadConfig, seed: u64) -> Bench {
        Self::try_calibrate(deployment, config, seed).expect("calibration over a static scene")
    }

    /// Fallible variant of [`Bench::calibrate`]: surfaces calibration and
    /// configuration faults as [`RfipadError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Whatever [`Calibration::from_observations`] or the recognizer
    /// builder reject — an under-sampled tag, an invalid config…
    pub fn try_calibrate(
        deployment: Deployment,
        config: RfipadConfig,
        seed: u64,
    ) -> Result<Bench, RfipadError> {
        let reader = Gen2Reader::new(ReaderConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let run = reader.run(&deployment.scene, &[], 0.0, CALIBRATION_SECS, &mut rng);
        let calibration = Calibration::from_observations(&deployment.layout, &run.events, &config)?;
        let recognizer = Recognizer::builder()
            .layout(deployment.layout.clone())
            .calibration(calibration)
            .config(config)
            .build()?;
        Ok(Bench {
            deployment,
            reader,
            recognizer,
        })
    }

    /// The hand and forearm targets for a session written by `user`. Both
    /// targets share the session's trajectory allocation (Arc refcount
    /// bumps, not deep copies of the segment list).
    pub fn targets(session: &WritingSession, user: &UserProfile) -> (HandTarget, HandTarget) {
        let hand = HandTarget::new(Arc::clone(&session.trajectory), user.hand_rcs_m2);
        let arm = HandTarget::with_offset(
            Arc::clone(&session.trajectory),
            user.arm_rcs_m2,
            user.arm_offset,
        );
        (hand, arm)
    }

    /// Records the reader stream for one writing session (with margins) and
    /// returns the tag reports.
    pub fn record_session<R: Rng + ?Sized>(
        &self,
        session: &WritingSession,
        user: &UserProfile,
        rng: &mut R,
    ) -> Vec<TagReport> {
        let (hand, arm) = Self::targets(session, user);
        let targets: Vec<&dyn MovingTarget> = vec![&hand, &arm];
        let start = session
            .trajectory
            .start_time()
            .unwrap_or(0.0)
            .min(session.strokes.first().map(|s| s.start).unwrap_or(0.0))
            - SESSION_MARGIN_SECS;
        let duration = session.end_time() - start + SESSION_MARGIN_SECS;
        let run = self
            .reader
            .run(&self.deployment.scene, &targets, start, duration, rng);
        run.events
    }

    /// Runs one stroke trial end to end.
    pub fn run_stroke_trial(&self, stroke: Stroke, user: &UserProfile, seed: u64) -> StrokeTrial {
        let writer = Writer::new(self.deployment.pad, user.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let session = writer.write_motion(stroke, 1.0, &mut rng);
        let reports = self.record_session(&session, user, &mut rng);
        let result = self.recognizer.recognize_session(&reports);
        StrokeTrial {
            truth: stroke,
            session,
            reports,
            result,
        }
    }

    /// Runs one letter trial end to end.
    pub fn run_letter_trial(&self, letter: char, user: &UserProfile, seed: u64) -> LetterTrial {
        let writer = Writer::new(self.deployment.pad, user.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let session = writer.write_letter(letter, 1.0, &mut rng);
        let reports = self.record_session(&session, user, &mut rng);
        let result = self.recognizer.recognize_session(&reports);
        LetterTrial {
            truth: letter,
            session,
            reports,
            result,
        }
    }

    /// Runs a list of `(stroke, seed)` jobs across worker threads and
    /// returns the trials in input order.
    ///
    /// Each trial owns its seed, so the outcome of job `i` is a pure
    /// function of `jobs[i]` — the result vector is bit-identical to
    /// mapping [`Bench::run_stroke_trial`] over the jobs serially, whatever
    /// the thread count.
    pub fn run_stroke_trials(
        &self,
        jobs: &[(Stroke, u64)],
        user: &UserProfile,
    ) -> Vec<StrokeTrial> {
        fanout::map_ordered(jobs, fanout::env_threads(), |&(stroke, seed)| {
            self.run_stroke_trial(stroke, user, seed)
        })
    }

    /// Runs a list of `(letter, seed)` jobs across worker threads and
    /// returns the trials in input order. Same determinism contract as
    /// [`Bench::run_stroke_trials`].
    pub fn run_letter_trials(&self, jobs: &[(char, u64)], user: &UserProfile) -> Vec<LetterTrial> {
        fanout::map_ordered(jobs, fanout::env_threads(), |&(letter, seed)| {
            self.run_letter_trial(letter, user, seed)
        })
    }
}

/// Outcome of one stroke trial.
#[derive(Debug, Clone)]
pub struct StrokeTrial {
    /// The stroke that was written.
    pub truth: Stroke,
    /// The ground-truth session.
    pub session: WritingSession,
    /// The raw reader report stream of the trial.
    pub reports: Vec<TagReport>,
    /// What the recognizer saw.
    pub result: SessionResult,
}

impl StrokeTrial {
    /// Whether exactly one stroke was detected with the right shape and
    /// direction.
    pub fn correct(&self) -> bool {
        self.result.strokes.len() == 1 && self.result.strokes[0].stroke == self.truth
    }

    /// Whether the shape (ignoring direction) was right.
    pub fn shape_correct(&self) -> bool {
        self.result.strokes.len() == 1 && self.result.strokes[0].stroke.shape == self.truth.shape
    }

    /// False positive: more detections than true strokes.
    pub fn has_false_positive(&self) -> bool {
        self.result.strokes.len() > 1
    }

    /// False negative: no detection at all.
    pub fn has_false_negative(&self) -> bool {
        self.result.strokes.is_empty()
    }
}

/// Outcome of one letter trial.
#[derive(Debug, Clone)]
pub struct LetterTrial {
    /// The letter that was written.
    pub truth: char,
    /// The ground-truth session.
    pub session: WritingSession,
    /// The raw reader report stream of the trial.
    pub reports: Vec<TagReport>,
    /// What the recognizer saw.
    pub result: SessionResult,
}

impl LetterTrial {
    /// Whether the letter was recognized correctly.
    pub fn correct(&self) -> bool {
        self.result.letter == Some(self.truth)
    }

    /// Ground-truth stroke intervals for segmentation scoring.
    pub fn truth_spans(&self) -> Vec<(f64, f64)> {
        self.session
            .strokes
            .iter()
            .map(|s| (s.start, s.end))
            .collect()
    }

    /// Segmentation outcome against ground truth, scored over
    /// `recognizer`'s segmentation of the whole recording.
    pub fn segmentation_outcome(
        &self,
        recognizer: &Recognizer,
    ) -> rfipad::metrics::SegmentationOutcome {
        let segmentation = recognizer.segment(&recognizer.streams(&self.reports));
        rfipad::metrics::score_segmentation(&segmentation.spans, &self.truth_spans())
    }

    /// Fraction of ground-truth strokes whose recognized shape matches.
    pub fn stroke_accuracy(&self) -> f64 {
        let truth = &self.session.strokes;
        if truth.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for t in truth {
            // Match by time overlap.
            let best = self.result.strokes.iter().max_by(|a, b| {
                overlap(a.span, t.start, t.end)
                    .partial_cmp(&overlap(b.span, t.start, t.end))
                    .expect("finite")
            });
            if let Some(r) = best {
                if overlap(r.span, t.start, t.end) > 0.0 && r.stroke.shape == t.stroke.shape {
                    correct += 1;
                }
            }
        }
        correct as f64 / truth.len() as f64
    }
}

fn overlap(span: StrokeSpan, start: f64, end: f64) -> f64 {
    (span.end.min(end) - span.start.max(start)).max(0.0)
}

/// Aggregate result of a batch of motion trials (the unit most evaluation
/// figures are built from).
#[derive(Debug, Clone, Copy, Default)]
pub struct MotionBatch {
    /// Trials run.
    pub trials: usize,
    /// Trials whose single stroke was recognized exactly (shape+direction).
    pub exact: usize,
    /// Trials whose shape was right (direction ignored).
    pub shape: usize,
    /// Binary detection tallies for FPR/FNR.
    pub counts: rfipad::metrics::DetectionCounts,
}

impl MotionBatch {
    /// Exact-recognition accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.exact as f64 / self.trials as f64
        }
    }

    /// Shape-only accuracy.
    pub fn shape_accuracy(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.shape as f64 / self.trials as f64
        }
    }
}

impl Bench {
    /// Runs `repetitions` of each of the 13 strokes and tallies accuracy
    /// and detection rates. Seeds derive from `seed0` so batches are
    /// reproducible yet distinct.
    ///
    /// Trials are independent (each reseeds its own rng from the derived
    /// per-trial seed), so they fan out across worker threads; the tally is
    /// then folded in job order, making the batch bit-identical to a serial
    /// run regardless of thread count.
    pub fn run_motion_batch(
        &self,
        user: &UserProfile,
        repetitions: usize,
        seed0: u64,
    ) -> MotionBatch {
        let mut jobs = Vec::with_capacity(13 * repetitions);
        for stroke in Stroke::all_thirteen() {
            for rep in 0..repetitions {
                let seed = seed0
                    .wrapping_mul(1_000_003)
                    .wrapping_add(stroke.shape.motion_number() as u64 * 131)
                    .wrapping_add(stroke.reversed as u64 * 17)
                    .wrapping_add(rep as u64);
                jobs.push((stroke, seed));
            }
        }
        let trials = self.run_stroke_trials(&jobs, user);
        let mut batch = MotionBatch::default();
        for trial in &trials {
            batch.trials += 1;
            if trial.correct() {
                batch.exact += 1;
            }
            if trial.shape_correct() {
                batch.shape += 1;
            }
            if trial.has_false_negative() {
                batch.counts.false_negatives += 1;
            } else {
                batch.counts.true_positives += 1;
            }
            // The paper's FPR counts *falsely detected motions*: a
            // detection reporting the wrong motion, or spurious extra
            // detections.
            let falsely_detected =
                trial.has_false_positive() || (!trial.has_false_negative() && !trial.correct());
            if falsely_detected {
                batch.counts.false_positives += 1;
            } else {
                batch.counts.true_negatives += 1;
            }
        }
        batch
    }
}
