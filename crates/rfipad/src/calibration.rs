//! Static calibration: tag diversity and deviation bias.
//!
//! Before recognition, RFIPad records each tag's signal in the static
//! environment. From those samples it derives, per tag:
//!
//! - the average phase θ̃ᵢ (Eq. 6) subtracted later to cancel the hardware
//!   phase offsets θ_T, θ_R, θ_tag — the *tag diversity* suppression of
//!   Eq. 8;
//! - the *deviation bias* bᵢ — the standard deviation of the static phase —
//!   from which the Eq. 9 weighting function is built to suppress *location
//!   diversity* (tags in rich multipath jitter more and are down-weighted);
//! - the static activity level used to set the stroke-detection threshold
//!   of Eq. 12.
//!
//! Phases live on the circle, so means and deviations are circular.

use crate::config::RfipadConfig;
use crate::error::RfipadError;
use crate::layout::ArrayLayout;
use crate::stage::MAX_BUFFER_S;
use rfid_gen2::report::{TagId, TagIdMap, TagReport};
use sigproc::frames::FrameSeq;
use sigproc::series::TimeSeries;
use sigproc::stats;
use std::f64::consts::{PI, TAU};

/// Minimum static samples per tag for a trustworthy calibration (the paper
/// interrogates each tag 100 times; we require a tenth of that).
pub const MIN_SAMPLES_PER_TAG: usize = 10;

/// Floor on the deviation bias: the reader cannot resolve phase deviations
/// below its quantization step (≈ 0.0015 rad), so no tag's measured bias is
/// meaningful below it. Without this floor, near-noiseless calibrations
/// would turn floating-point dust into enormous weight swings.
pub const MIN_DEVIATION_BIAS: f64 = rfid_gen2::report::PHASE_STEP;

/// Multiplier on the calibrated static `std(rms(w))` level that gives the
/// stroke-activity threshold `thre` of Eq. 12.
pub const THRESHOLD_SCALE: f64 = 3.0;

/// Absolute floor of the Eq. 12 activity threshold (radians-RMS units),
/// protecting against a perfectly quiet calibration.
pub const THRESHOLD_FLOOR: f64 = 0.05;

/// Multiplier on the calibrated static frame-RMS level: frames whose
/// multi-tag RMS exceeds it count as active even when the window variance
/// test (Eq. 12) is blind, e.g. a hand moving with steady influence.
pub const RMS_LEVEL_SCALE: f64 = 2.5;

/// Absolute floor of the RMS-level threshold (excess-RMS units). The
/// excess RMS of a quiet pad is ≈0 in any environment, so the floor sets
/// the minimum signal a stroke must inject.
pub const RMS_LEVEL_FLOOR: f64 = 0.9;

/// Multiplier κ on each tag's deviation bias when subtracting the per-tag
/// noise floor from frame RMS (excess-RMS segmentation).
pub const NOISE_FLOOR_KAPPA: f64 = 1.3;

/// Wraps a phase difference into `(-π, π]`.
pub fn wrap_to_pi(phase: f64) -> f64 {
    let mut p = phase.rem_euclid(TAU);
    if p > PI {
        p -= TAU;
    }
    p
}

/// Circular mean of phases in radians.
fn circular_mean(phases: &[f64]) -> f64 {
    let (s, c) = phases
        .iter()
        .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
    s.atan2(c).rem_euclid(TAU)
}

/// Circular standard deviation: `sqrt(-2 ln R)` with `R` the mean resultant
/// length.
fn circular_std(phases: &[f64]) -> f64 {
    let n = phases.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (s, c) = phases
        .iter()
        .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
    let r = ((s / n).powi(2) + (c / n).powi(2)).sqrt().clamp(1e-12, 1.0);
    (-2.0 * r.ln()).sqrt()
}

/// Per-tag static statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagCalibration {
    /// Circular mean static phase θ̃ᵢ (Eq. 6).
    pub mean_phase: f64,
    /// Deviation bias bᵢ: circular std of static phase (Fig. 5).
    pub deviation_bias: f64,
    /// Mean static RSS in dBm (reference for trough depths).
    pub mean_rss: f64,
    /// Static samples used.
    pub samples: usize,
}

/// The complete static calibration of a pad, per tag in layout order.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The layout's tag ids the calibration was taken on, in layout order.
    tags: Vec<TagId>,
    /// Per-tag statistics, in the same order.
    per_tag: Vec<TagCalibration>,
    /// Mean deviation bias across the array (weighting normalizer).
    mean_bias: f64,
    /// Median `std(rms(w))` of static windows — the quiet-floor for Eq. 12.
    static_window_std: f64,
    /// Median per-frame multi-tag RMS of the static recording — the
    /// quiet-floor for the RMS-level test.
    static_frame_rms: f64,
}

impl Calibration {
    /// Builds a calibration from observations recorded with no hand present.
    ///
    /// Reports with a non-finite time, phase or RSS are skipped, as the
    /// stage graph drops them at admission.
    ///
    /// # Errors
    ///
    /// - [`RfipadError::InvalidConfig`] if `config` fails
    ///   [`RfipadConfig::validate`];
    /// - [`RfipadError::EmptyStream`] if `observations` is empty;
    /// - [`RfipadError::UnknownTag`] if a report references a tag outside
    ///   the layout;
    /// - [`RfipadError::InvalidConfig`] if two reads adjacent in time lie
    ///   more than the 30 s retention window apart;
    /// - [`RfipadError::InsufficientCalibration`] if any layout tag has
    ///   fewer than [`MIN_SAMPLES_PER_TAG`] samples.
    pub fn from_observations(
        layout: &ArrayLayout,
        observations: &[TagReport],
        config: &RfipadConfig,
    ) -> Result<Self, RfipadError> {
        config.validate()?;
        if observations.is_empty() {
            return Err(RfipadError::EmptyStream);
        }
        let admitted = || {
            observations
                .iter()
                .filter(|o| o.time.is_finite() && o.phase.is_finite() && o.rss_dbm.is_finite())
        };
        let mut reads: Vec<Vec<&TagReport>> = vec![Vec::new(); layout.len()];
        for obs in admitted() {
            let index = layout
                .index(obs.tag)
                .ok_or(RfipadError::UnknownTag(obs.tag))?;
            reads[index].push(obs);
        }
        // A recording merged from two antennas or sources need not be in
        // time order; the static floors push each tag's reads into a time
        // series. Sorting ordered reads leaves them as they were.
        for tag_reads in &mut reads {
            tag_reads.sort_by(|a, b| a.time.total_cmp(&b.time));
        }
        // The static floors frame the whole recording, so a gap the stage
        // graph would answer by restarting the stream would size the
        // frames by the gap instead.
        let mut times: Vec<f64> = admitted().map(|o| o.time).collect();
        times.sort_by(f64::total_cmp);
        if let Some(gap) = times.windows(2).find(|w| w[1] - w[0] > MAX_BUFFER_S) {
            return Err(RfipadError::InvalidConfig(format!(
                "calibration reads at {} s and {} s lie more than {MAX_BUFFER_S} s apart",
                gap[0], gap[1]
            )));
        }

        let mut per_tag = Vec::with_capacity(layout.len());
        for (&id, tag_reads) in layout.tags().iter().zip(&reads) {
            if tag_reads.len() < MIN_SAMPLES_PER_TAG {
                return Err(RfipadError::InsufficientCalibration {
                    tag: id,
                    got: tag_reads.len(),
                    need: MIN_SAMPLES_PER_TAG,
                });
            }
            let phases: Vec<f64> = tag_reads.iter().map(|o| o.phase).collect();
            let rss: Vec<f64> = tag_reads.iter().map(|o| o.rss_dbm).collect();
            per_tag.push(TagCalibration {
                mean_phase: circular_mean(&phases),
                deviation_bias: circular_std(&phases).max(MIN_DEVIATION_BIAS),
                mean_rss: stats::mean(&rss),
                samples: tag_reads.len(),
            });
        }
        // Summed in the iteration order of a `TagIdMap` filled in layout
        // order, not in layout order: summing in layout order moves the
        // last bits of the mean on most deployments, and with them every
        // Eq. 10 weight and the pinned figures and traces.
        let mut biases: TagIdMap<TagId, f64> = TagIdMap::default();
        biases.reserve(layout.len());
        for (&id, tag) in layout.tags().iter().zip(&per_tag) {
            biases.insert(id, tag.deviation_bias);
        }
        let mean_bias = stats::mean(&biases.into_values().collect::<Vec<_>>()).max(1e-9);

        // Quiet-floor estimation: frame the *suppressed* static phases
        // exactly the way the segmenter will and record the typical
        // std(rms(w)).
        let start = admitted().map(|o| o.time).fold(f64::INFINITY, f64::min);
        let end = admitted().map(|o| o.time).fold(f64::NEG_INFINITY, f64::max);
        let (static_window_std, static_frame_rms) =
            Self::compute_static_floors(&reads, &per_tag, start, end, config);

        Ok(Self {
            tags: layout.tags().to_vec(),
            per_tag,
            mean_bias,
            static_window_std,
            static_frame_rms,
        })
    }

    fn compute_static_floors(
        reads: &[Vec<&TagReport>],
        per_tag: &[TagCalibration],
        start: f64,
        end: f64,
        config: &RfipadConfig,
    ) -> (f64, f64) {
        if end - start < config.frame_len_s * config.window_frames as f64 {
            return (0.0, 0.0);
        }
        let mut series: Vec<TimeSeries> = Vec::with_capacity(per_tag.len());
        let mut floors: Vec<f64> = Vec::with_capacity(per_tag.len());
        for (tag_reads, tag) in reads.iter().zip(per_tag) {
            let mut stream = TimeSeries::default();
            for obs in tag_reads {
                stream.push(obs.time, wrap_to_pi(obs.phase - tag.mean_phase));
            }
            series.push(stream);
            floors.push(NOISE_FLOOR_KAPPA * tag.deviation_bias);
        }
        let frames =
            FrameSeq::build_with_floors(&series, Some(&floors), start, end, config.frame_len_s);
        // Eq. 12's `std(rms(w))` of each run of `window_frames` frames.
        let stds: Vec<f64> = frames
            .frames()
            .chunks(config.window_frames)
            .map(|w| stats::variance_of(w.iter().map(|f| f.rms)).sqrt())
            .collect();
        (stats::median(&stds), stats::median(&frames.rms_values()))
    }

    /// The tag ids the calibration was taken on, in layout order.
    pub fn tag_ids(&self) -> &[TagId] {
        &self.tags
    }

    /// Per-tag statistics, in layout order.
    pub fn per_tag(&self) -> &[TagCalibration] {
        &self.per_tag
    }

    /// The Eq. 10 multipliers `wᵢ⁻¹` in layout order: tags with high
    /// deviation bias are weakened, quiet tags boosted. The Eq. 9 weight
    /// `wᵢ = bᵢ / Σbⱼ` is taken relative to the mean bias instead (the two
    /// differ by the array-size constant), `wᵢ ∝ bᵢ / mean(b)`, and `bᵢ` is
    /// floored at 10% of the mean bias to keep a near-perfect tag from
    /// dominating the image.
    pub fn inverse_weights(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_tag
            .iter()
            .map(|c| 1.0 / (c.deviation_bias.max(0.1 * self.mean_bias) / self.mean_bias))
    }

    /// The Eq. 12 activity threshold: [`THRESHOLD_SCALE`] × the static
    /// quiet floor, but no lower than [`THRESHOLD_FLOOR`].
    pub fn activity_threshold(&self) -> f64 {
        (THRESHOLD_SCALE * self.static_window_std).max(THRESHOLD_FLOOR)
    }

    /// The RMS-level activity threshold complementing Eq. 12:
    /// [`RMS_LEVEL_SCALE`] × the static excess-RMS floor, but at least
    /// [`RMS_LEVEL_FLOOR`].
    pub fn rms_level_threshold(&self) -> f64 {
        (RMS_LEVEL_SCALE * self.static_frame_rms).max(RMS_LEVEL_FLOOR)
    }

    /// Per-tag noise floors (κ · deviation bias) in layout order, for the
    /// excess-RMS framing.
    pub fn noise_floors(&self) -> Vec<f64> {
        self.per_tag
            .iter()
            .map(|c| NOISE_FLOOR_KAPPA * c.deviation_bias)
            .collect()
    }

    /// Median static frame RMS the level threshold derives from.
    pub fn static_frame_rms(&self) -> f64 {
        self.static_frame_rms
    }

    /// Mean deviation bias across the array.
    pub fn mean_bias(&self) -> f64 {
        self.mean_bias
    }

    /// Median static `std(rms(w))` the threshold is derived from.
    pub fn static_window_std(&self) -> f64 {
        self.static_window_std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(1, 2, vec![TagId(0), TagId(1)])
    }

    fn static_obs(tag: TagId, base_phase: f64, jitter: f64, n: usize) -> Vec<TagReport> {
        (0..n)
            .map(|j| {
                TagReport::synthetic(
                    tag,
                    j as f64 * 0.05,
                    (base_phase + jitter * ((j as f64 * 2.399).sin())).rem_euclid(TAU),
                    -45.0,
                )
            })
            .collect()
    }

    #[test]
    fn circular_mean_handles_wraparound() {
        // Samples straddling 0/2π must average near 0, not π.
        let phases = [0.1, TAU - 0.1, 0.05, TAU - 0.05];
        let m = circular_mean(&phases);
        assert!(!(0.1..=TAU - 0.1).contains(&m), "mean {m}");
    }

    #[test]
    fn circular_std_small_for_tight_cluster() {
        let phases: Vec<f64> = (0..100).map(|i| 1.0 + 0.01 * (i as f64).sin()).collect();
        assert!(circular_std(&phases) < 0.05);
    }

    #[test]
    fn calibration_from_distinct_tags() {
        let mut obs = static_obs(TagId(0), 1.0, 0.02, 40);
        obs.extend(static_obs(TagId(1), 4.0, 0.2, 40));
        let cal =
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()).unwrap();
        assert_eq!(cal.tag_ids(), layout().tags());
        let [t0, t1] = cal.per_tag() else {
            panic!("two tags calibrated")
        };
        assert!((t0.mean_phase - 1.0).abs() < 0.05);
        assert!((t1.mean_phase - 4.0).abs() < 0.15);
        // Tag 1 jitters 10× more → larger bias, smaller inverse weight.
        let (b0, b1) = (t0.deviation_bias, t1.deviation_bias);
        assert!(b1 > 3.0 * b0, "biases {b0} {b1}");
        let w: Vec<f64> = cal.inverse_weights().collect();
        assert!(w[0] > w[1], "inverse weights {w:?}");
    }

    #[test]
    fn empty_observations_rejected() {
        assert_eq!(
            Calibration::from_observations(&layout(), &[], &RfipadConfig::default()),
            Err(RfipadError::EmptyStream)
        );
    }

    #[test]
    fn an_invalid_config_is_refused() {
        let mut obs = static_obs(TagId(0), 1.0, 0.02, 40);
        obs.extend(static_obs(TagId(1), 4.0, 0.2, 40));
        for config in [
            RfipadConfig {
                frame_len_s: f64::NAN,
                ..RfipadConfig::default()
            },
            RfipadConfig {
                frame_len_s: f64::INFINITY,
                ..RfipadConfig::default()
            },
            RfipadConfig {
                window_frames: 0,
                ..RfipadConfig::default()
            },
        ] {
            assert!(
                matches!(
                    Calibration::from_observations(&layout(), &obs, &config),
                    Err(RfipadError::InvalidConfig(_))
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let obs = static_obs(TagId(7), 1.0, 0.02, 40);
        assert!(matches!(
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()),
            Err(RfipadError::UnknownTag(TagId(7)))
        ));
    }

    #[test]
    fn undersampled_tag_rejected() {
        let mut obs = static_obs(TagId(0), 1.0, 0.02, 40);
        obs.extend(static_obs(TagId(1), 2.0, 0.02, 3));
        assert!(matches!(
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()),
            Err(RfipadError::InsufficientCalibration {
                tag: TagId(1),
                got: 3,
                need: 10
            })
        ));
    }

    #[test]
    fn non_finite_reports_are_skipped() {
        let mut clean = static_obs(TagId(0), 1.0, 0.02, 40);
        clean.extend(static_obs(TagId(1), 4.0, 0.2, 40));
        let config = RfipadConfig::default();
        let expected = Calibration::from_observations(&layout(), &clean, &config).unwrap();
        for poison in [
            |o: &mut TagReport| o.phase = f64::NAN,
            |o: &mut TagReport| o.rss_dbm = f64::NEG_INFINITY,
            |o: &mut TagReport| o.time = f64::INFINITY,
        ] {
            let mut bad = clean[3];
            poison(&mut bad);
            let mut polluted = clean.clone();
            polluted.insert(4, bad);
            let cal = Calibration::from_observations(&layout(), &polluted, &config).unwrap();
            assert_eq!(calibration_bits(&cal), calibration_bits(&expected));
        }
    }

    /// Every value of a calibration, as bits.
    fn calibration_bits(cal: &Calibration) -> Vec<u64> {
        let mut bits = vec![
            cal.mean_bias().to_bits(),
            cal.static_window_std().to_bits(),
            cal.static_frame_rms().to_bits(),
        ];
        for (id, tag) in cal.tag_ids().iter().zip(cal.per_tag()) {
            bits.extend([
                id.0,
                tag.mean_phase.to_bits(),
                tag.deviation_bias.to_bits(),
                tag.mean_rss.to_bits(),
                tag.samples as u64,
            ]);
        }
        bits
    }

    #[test]
    fn out_of_order_reads_calibrate_like_their_sorted_copy() {
        let config = RfipadConfig::default();
        // Tag 0's reads run from 1.95 s back to 0 s.
        let mut reversed = static_obs(TagId(0), 1.0, 0.02, 40);
        reversed.reverse();
        reversed.extend(static_obs(TagId(1), 4.0, 0.2, 40));
        // Two interleaved runs, one 29 s after the other, both backwards.
        let mut interleaved = static_obs(TagId(0), 1.0, 0.02, 80);
        for (j, o) in interleaved.iter_mut().enumerate() {
            o.time = (79 - j) as f64 * 0.05 + if j % 2 == 0 { 29.0 } else { 0.0 };
        }
        interleaved.extend(static_obs(TagId(1), 4.0, 0.2, 40));
        for obs in [reversed, interleaved] {
            let mut sorted = obs.clone();
            sorted.sort_by(|a, b| a.time.total_cmp(&b.time));
            let cal = Calibration::from_observations(&layout(), &obs, &config).unwrap();
            let expected = Calibration::from_observations(&layout(), &sorted, &config).unwrap();
            assert_eq!(calibration_bits(&cal), calibration_bits(&expected));
        }
    }

    #[test]
    fn a_gap_past_the_retention_window_is_refused() {
        let mut obs = static_obs(TagId(0), 1.0, 0.02, 40);
        obs.extend(static_obs(TagId(1), 4.0, 0.2, 40));
        obs.last_mut().expect("reads").time = 1e12;
        assert!(matches!(
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()),
            Err(RfipadError::InvalidConfig(_))
        ));
        // A pause just inside the window is no gap.
        for (j, o) in obs.iter_mut().enumerate() {
            o.time = (j % 40) as f64 * 0.05 + if j % 40 >= 20 { 29.0 } else { 0.0 };
        }
        assert!(Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()).is_ok());
    }

    #[test]
    fn activity_threshold_respects_floor() {
        let mut obs = static_obs(TagId(0), 1.0, 1e-6, 40);
        obs.extend(static_obs(TagId(1), 2.0, 1e-6, 40));
        let cal =
            Calibration::from_observations(&layout(), &obs, &RfipadConfig::default()).unwrap();
        assert!(cal.activity_threshold() >= THRESHOLD_FLOOR);
    }

    #[test]
    fn noisier_environment_raises_threshold() {
        let config = RfipadConfig::default();
        let quiet = {
            let mut obs = static_obs(TagId(0), 1.0, 0.02, 60);
            obs.extend(static_obs(TagId(1), 2.0, 0.02, 60));
            Calibration::from_observations(&layout(), &obs, &config).unwrap()
        };
        let noisy = {
            let mut obs = static_obs(TagId(0), 1.0, 0.4, 60);
            obs.extend(static_obs(TagId(1), 2.0, 0.4, 60));
            Calibration::from_observations(&layout(), &obs, &config).unwrap()
        };
        assert!(noisy.activity_threshold() >= quiet.activity_threshold());
    }

    #[test]
    fn wrap_to_pi_range() {
        for i in -20..20 {
            let w = wrap_to_pi(i as f64 * 0.7);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
        }
        assert!((wrap_to_pi(TAU + 0.3) - 0.3).abs() < 1e-12);
        assert!((wrap_to_pi(-0.3) + 0.3).abs() < 1e-12);
    }
}
